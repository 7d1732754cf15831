// Command perfbench is the repository's benchmark: it runs one workload
// of the analyzer or its daemon for a fixed time from a single process,
// checks every operation's output against a computation made apart from
// the code under test, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard output.
//
//	perfbench --workload table1 --seed 1 --seconds 15 --trace 0
//	perfbench compare BASE_DIR HEAD_DIR
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// families sizes the wide program of wide_cold and edit_session;
	// table1 limits the Table 1 programs (0: all). Only tests shrink
	// them.
	families, table1 int
}

func defaultConfig() config {
	return config{families: 512}
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

// workload is one benchmark workload. setup builds its inputs and state
// (called setupReps times; the last state is kept); round runs one
// whole round of operations; close releases what setup started.
type workload interface {
	setup(r *runner) error
	round(r *runner, n int)
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "table1":
		return &table1{}, nil
	case "wide_cold":
		return &wideCold{}, nil
	case "edit_session":
		return &editSession{}, nil
	case "daemon":
		return &daemonLoad{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want table1, wide_cold, edit_session or daemon)", name)
}

// Operation kinds; each end-to-end latency metric is one kind's median.
const (
	kAnalyze   = "analyze"
	kReanalyze = "reanalyze"
	kBackward  = "backward"
	kOptimize  = "optimize"
	kRun       = "run"
	// kBackwardWarm is a repeated backward query; it has no end-to-end
	// metric of its own and is reported on the samples lines.
	kBackwardWarm = "backward_warm"
)

// outcome is what an operation hands back for checking.
type outcome struct {
	// in identifies the operation's input and digest its output; equal
	// (kind, in, digest) triples share one check.
	in, digest string
	// check verifies the output after the measured phase; nil when the
	// output needs no check beyond the operation not failing.
	check func() error
}

// pendingCheck is one distinct output waiting to be checked.
type pendingCheck struct {
	kind  string
	check func() error
	ops   int
}

// runner holds one run's measurements. Safe for concurrent use.
type runner struct {
	cfg config
	tr  *tracer // nil when untraced

	mu        sync.Mutex
	samples   map[string]map[string][]float64 // kind -> key -> ms
	attempted int
	failed    int
	completed int
	nextOp    int
	checks    map[string]*pendingCheck
	order     []string
	inputs    map[string]string // manifest: input name -> sha256
	round0    []string          // round-0 output digests
	errs      int
	// concurrent is set by workloads whose operations overlap; they
	// collect once per round, not before each operation.
	concurrent bool
	gcTime     time.Duration
}

func newRunner(cfg config) *runner {
	r := &runner{
		cfg:     cfg,
		samples: make(map[string]map[string][]float64),
		checks:  make(map[string]*pendingCheck),
		inputs:  make(map[string]string),
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// quiet stops (or resumes) recording spans and layer counters.
func (r *runner) quiet(off bool) {
	if r.tr != nil {
		r.tr.mu.Lock()
		r.tr.off = off
		r.tr.mu.Unlock()
	}
}

// input records a generated input in the manifest.
func (r *runner) input(name, text string) {
	h := hash(text)
	r.mu.Lock()
	r.inputs[name] = h
	r.mu.Unlock()
}

func hash(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// op runs one operation of the given kind, times it, and registers its
// output check. key groups samples (the program on table1); round is
// the round number. fn gets the operation's id and, traced, the id of
// its root span (-1 untraced).
func (r *runner) op(kind, key string, round int, fn func(op, root int) (outcome, error)) {
	r.mu.Lock()
	id := r.nextOp
	r.nextOp++
	r.attempted++
	r.mu.Unlock()

	if !r.concurrent {
		r.collect()
	}
	root := -1
	if r.tr != nil {
		root = r.tr.begin("op."+kind, -1, id)
	}
	start := time.Now()
	out, err := fn(id, root)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if r.tr != nil {
		r.tr.end(root)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.failed++
		r.logf("%s %s: %v", kind, key, err)
		return
	}
	r.completed++
	r.addSample(kind, key, ms)
	if r.tr != nil && kind == kAnalyze {
		r.tr.sample("trace.analyze_ms", ms)
	}
	ck := kind + "|" + out.in + "|" + out.digest
	if round == 0 {
		r.round0 = append(r.round0, ck)
	}
	if pc, ok := r.checks[ck]; ok {
		pc.ops++
		return
	}
	r.checks[ck] = &pendingCheck{kind: kind, check: out.check, ops: 1}
	r.order = append(r.order, ck)
}

// collect runs a garbage collection outside the measured time. Each
// round, and each operation of a single-client workload, starts from a
// collected heap, so no operation pays for the garbage of the one
// before it.
func (r *runner) collect() {
	start := time.Now()
	runtime.GC()
	d := time.Since(start)
	r.mu.Lock()
	r.gcTime += d
	r.mu.Unlock()
}

// collected is the time spent in collect.
func (r *runner) collected() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gcTime
}

// observe adds a latency sample measured by the system itself, not an
// operation of its own.
func (r *runner) observe(kind, key string, ms float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addSample(kind, key, ms)
}

// addSample records a latency sample; the caller holds r.mu.
func (r *runner) addSample(kind, key string, ms float64) {
	if r.samples[kind] == nil {
		r.samples[kind] = make(map[string][]float64)
	}
	r.samples[kind][key] = append(r.samples[kind][key], ms)
}

// runChecks checks every distinct output and counts the operations
// whose output failed as failed.
func (r *runner) runChecks() {
	for _, ck := range r.order {
		pc := r.checks[ck]
		if pc.check == nil {
			continue
		}
		if err := pc.check(); err != nil {
			r.failed += pc.ops
			r.logf("check %s failed (%d ops): %v", pc.kind, pc.ops, err)
		}
	}
}

// logf reports to standard error, at most a few lines per run. The
// caller holds r.mu or runs alone.
func (r *runner) logf(format string, args ...any) {
	r.errs++
	if r.errs <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// latency returns a kind's latency metric: stat over all samples, or
// with perKey the geometric mean over keys (the Table 1 programs) of
// stat over each key's samples.
func (r *runner) latency(kind string, perKey bool, stat func([]float64) float64) float64 {
	byKey := r.samples[kind]
	if perKey {
		var per []float64
		for _, xs := range byKey {
			per = append(per, stat(xs))
		}
		return geomean(per)
	}
	var all []float64
	for _, xs := range byKey {
		all = append(all, xs...)
	}
	return stat(all)
}

// p90 is the 90th percentile of a run's samples, given in the order
// they were taken. With enough samples (the daemon's) it is the median
// of the 90th percentiles of five consecutive stretches of the run, so
// a burst of host CPU contention that covers one stretch does not set
// it; fewer samples give the plain 90th percentile.
func p90(xs []float64) float64 {
	const stretches, perStretch = 5, 8
	if len(xs) < stretches*perStretch {
		return percentile(xs, 90)
	}
	ps := make([]float64, stretches)
	for i := range ps {
		ps[i] = percentile(xs[i*len(xs)/stretches:(i+1)*len(xs)/stretches], 90)
	}
	return median(ps)
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"analyze_ms", "ms"},
	{"analyze_p90_ms", "ms"},
	{"reanalyze_ms", "ms"},
	{"backward_ms", "ms"},
	{"optimize_ms", "ms"},
	{"run_ms", "ms"},
	{"ops_per_s", "ops/s"},
	{"peak_rss_mb", "MB"},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", "", "table1, wide_cold, edit_session or daemon")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "1: run the traced, layer-by-layer path and print per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	cfg.trace = *traceFlag != 0
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run and returns its result line. The
// manifest and notes go to w before it.
func run(cfg config, w io.Writer) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	wl, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	defer wl.close()
	r := newRunner(cfg)

	var setups []float64
	r.quiet(true)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			wl.close()
		}
		start := time.Now()
		if err := wl.setup(r); err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.quiet(false)

	start := time.Now()
	limit := time.Duration(cfg.seconds * float64(time.Second))
	rounds := 0
	for elapsed := time.Duration(0); elapsed < limit; elapsed = time.Since(start) - r.collected() {
		r.collect()
		wl.round(r, rounds)
		rounds++
	}
	measured := (time.Since(start) - r.collected()).Seconds()
	rss := peakRSSMB()
	r.runChecks()

	fmt.Fprintf(w, "manifest workload=%s seed=%d trace=%t rounds=%d\n", cfg.workload, cfg.seed, cfg.trace, rounds)
	names := make([]string, 0, len(r.inputs))
	for n := range r.inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "manifest input %s sha256=%s\n", n, r.inputs[n])
	}
	for _, kind := range []string{kAnalyze, kReanalyze, kBackward, kBackwardWarm, kOptimize, kRun} {
		var all []float64
		for _, xs := range r.samples[kind] {
			all = append(all, xs...)
		}
		if len(all) > 0 {
			s := sorted(all)
			fmt.Fprintf(w, "samples %s n=%d min=%.4g median=%.4g max=%.4g ms\n", kind, len(s), s[0], median(s), s[len(s)-1])
		}
	}
	sort.Strings(r.round0)
	fmt.Fprintf(w, "outputs round0_sha256=%s ops=%d\n", hash(strings.Join(r.round0, "\n")), len(r.round0))

	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	res.Correct = r.failed == 0
	if r.tr != nil {
		path, err := r.tr.write(cfg.traceDir, cfg.workload, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(w, "trace spans=%s\n", path)
		res.Metrics = r.tr.layerValues()
		return res, nil
	}
	perKey := cfg.workload == "table1"
	values := map[string]float64{
		"setup_s":        median(setups),
		"analyze_ms":     r.latency(kAnalyze, perKey, median),
		"analyze_p90_ms": r.latency(kAnalyze, perKey, p90),
		"reanalyze_ms":   r.latency(kReanalyze, perKey, median),
		"backward_ms":    r.latency(kBackward, perKey, median),
		"optimize_ms":    r.latency(kOptimize, perKey, median),
		"run_ms":         r.latency(kRun, perKey, median),
		"ops_per_s":      float64(r.completed) / measured,
		"peak_rss_mb":    rss,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res, nil
}
