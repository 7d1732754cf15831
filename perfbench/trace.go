package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation share Op; Parent is the ID of the
// enclosing span, -1 for an operation's root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps the spans and per-layer counters of a traced run in
// memory; write puts the spans out when the run ends. Safe for
// concurrent use (the daemon workload records from several goroutines).
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	samples map[string][]float64
	first   map[string]float64 // deterministic counts from round 0
	sums    map[string]float64
	ratios  map[string][2]float64
	// off silences recording while a workload sets up.
	off bool
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		samples: make(map[string][]float64),
		first:   make(map[string]float64),
		sums:    make(map[string]float64),
		ratios:  make(map[string][2]float64),
	}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return id
}

// end closes span id and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 {
		return 0
	}
	t.spans[id].End = now
	return float64(now-t.spans[id].Start) / 1e6
}

// add records a span measured elsewhere (start and end as wall times).
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return id
}

// sample adds one observation of a per-layer value reported as a median.
func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	if t.off {
		t.mu.Unlock()
		return
	}
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// count adds a deterministic count observed in round 0; later rounds
// repeat the same inputs and are not added, so the value does not
// depend on how many rounds fit in the run.
func (t *tracer) count(name string, round int, v float64) {
	if round != 0 {
		return
	}
	t.mu.Lock()
	if t.off {
		t.mu.Unlock()
		return
	}
	t.first[name] += v
	t.mu.Unlock()
}

// sum adds v to a total over the whole measured phase.
func (t *tracer) sum(name string, v float64) {
	t.mu.Lock()
	if t.off {
		t.mu.Unlock()
		return
	}
	t.sums[name] += v
	t.mu.Unlock()
}

// ratio accumulates a useful-outcomes/attempts ratio.
func (t *tracer) ratio(name string, num, den float64) {
	t.mu.Lock()
	if t.off {
		t.mu.Unlock()
		return
	}
	r := t.ratios[name]
	t.ratios[name] = [2]float64{r[0] + num, r[1] + den}
	t.mu.Unlock()
}

// allocMB runs fn and returns the megabytes the process allocated
// meanwhile. It reads the runtime's global counter, so it is exact only
// while no other goroutine allocates.
func allocMB(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

// spanTimes returns, per span name, the durations and self times
// (duration minus the durations of direct children) in milliseconds.
func (t *tracer) spanTimes() (dur, self map[string][]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	dur = make(map[string][]float64)
	self = make(map[string][]float64)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		dur[s.Name] = append(dur[s.Name], float64(d)/1e6)
		self[s.Name] = append(self[s.Name], float64(d-child[i])/1e6)
	}
	return dur, self
}

// write puts the spans out as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// layerMetric is one per-layer metric and how its value is derived.
type layerMetric struct {
	name, unit string
	// from selects the source: "dur" and "self" take the median
	// duration or self time of the spans named span; "sample" the median
	// of sampled values; "first" the round-0 count; "sum" the phase
	// total; "ratio" the accumulated ratio.
	from string
	span string
}

// layerMetrics lists every per-layer metric, in BENCHMARK.json order.
var layerMetrics = []layerMetric{
	{"awam.load_ms", "ms", "dur", "awam.load"},
	{"awam.marshal_ms", "ms", "dur", "awam.marshal"},
	{"awam.summary_ms", "ms", "dur", "awam.summary"},
	{"parser.parse_ms", "ms", "dur", "parser.parse"},
	{"parser.alloc_mb", "MB", "sample", ""},
	{"compiler.compile_ms", "ms", "dur", "compiler.compile"},
	{"compiler.alloc_mb", "MB", "sample", ""},
	{"compiler.code_size", "count", "first", ""},
	{"specialize.build_ms", "ms", "dur", "specialize.build"},
	{"specialize.alloc_mb", "MB", "sample", ""},
	{"specialize.fused_sites", "count", "first", ""},
	{"inc.plan_ms", "ms", "sample", ""},
	{"inc.engine_ms", "ms", "dur", "inc.engine"},
	{"inc.self_ms", "ms", "sample", ""},
	{"inc.sccs", "count", "first", ""},
	{"inc.executed_sccs", "count", "first", ""},
	{"cache.get_ms", "ms", "sample", ""},
	{"cache.put_ms", "ms", "sample", ""},
	{"cache.gets", "count", "first", ""},
	{"cache.puts", "count", "first", ""},
	{"cache.hit_ratio", "ratio", "ratio", ""},
	{"cache.resident_mb", "MB", "sample", ""},
	{"core.analyze_ms", "ms", "sample", ""},
	{"core.execute_ms", "ms", "sample", ""},
	{"core.table_ms", "ms", "sample", ""},
	{"core.finalize_ms", "ms", "sample", ""},
	{"core.steps", "count", "first", ""},
	{"core.iterations", "count", "first", ""},
	{"core.table_size", "count", "first", ""},
	{"core.table_hit_ratio", "ratio", "ratio", ""},
	{"core.heap_cells", "count", "first", ""},
	{"core.alloc_mb", "MB", "sample", ""},
	{"domain.intern_hit_ratio", "ratio", "ratio", ""},
	{"domain.patterns", "count", "first", ""},
	{"domain.lub_hit_ratio", "ratio", "ratio", ""},
	{"backward.analyze_ms", "ms", "dur", "backward.analyze"},
	{"backward.condense_ms", "ms", "sample", ""},
	{"backward.solve_ms", "ms", "sample", ""},
	{"backward.visited_sccs", "count", "first", ""},
	{"backward.executed_sccs", "count", "first", ""},
	{"backward.steps", "count", "first", ""},
	{"optimize.pipeline_ms", "ms", "dur", "optimize.pipeline"},
	{"optimize.gate_ms", "ms", "dur", "optimize.gate"},
	{"optimize.rewrites", "count", "first", ""},
	{"optimize.code_after", "count", "first", ""},
	{"machine.run_ms", "ms", "dur", "machine.run"},
	{"machine.steps", "count", "first", ""},
	{"serve.handler_ms", "ms", "dur", "serve.handler.analyze"},
	{"serve.self_ms", "ms", "self", "serve.handler.analyze"},
	{"serve.reanalyze_handler_ms", "ms", "dur", "serve.handler.reanalyze"},
	{"serve.reanalyze_self_ms", "ms", "self", "serve.handler.reanalyze"},
	{"serve.backward_handler_ms", "ms", "dur", "serve.handler.backward"},
	{"serve.backward_self_ms", "ms", "self", "serve.handler.backward"},
	{"serve.transport_ms", "ms", "sample", ""},
	{"serve.response_kb", "kB", "sample", ""},
	{"serve.coalesced", "count", "sum", ""},
	{"trace.analyze_ms", "ms", "sample", ""},
}

// layerValues derives every per-layer metric. A layer the workload does
// not exercise reads 0.
func (t *tracer) layerValues() map[string]metricValue {
	dur, self := t.spanTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]metricValue, len(layerMetrics))
	for _, m := range layerMetrics {
		var v float64
		switch m.from {
		case "dur":
			v = median(dur[m.span])
		case "self":
			v = median(self[m.span])
		case "sample":
			v = median(t.samples[m.name])
		case "first":
			v = t.first[m.name]
		case "sum":
			v = t.sums[m.name]
		case "ratio":
			if r := t.ratios[m.name]; r[1] > 0 {
				v = r[0] / r[1]
			}
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}
