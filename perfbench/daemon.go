package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"awam"
	"awam/api"
	"awam/internal/bench"
	"awam/internal/serve"
)

// daemonLoad serves a mid-size seeded wide program from an in-process
// awamd handler on loopback to two closed-loop clients, each on its own
// connection. In each round every client makes a distinct one-clause
// edit and posts it to /v1/analyze, then both clients re-analyse the
// same already-analysed version at once (so identical requests can be
// coalesced), query the edited family on /v1/backward and post the
// edit to /v1/optimize, which also runs the optimized main/0.
type daemonLoad struct {
	prog   bench.Program
	shared string // the version both clients re-analyse next round

	srv    *http.Server
	done   chan struct{}
	client *http.Client
	url    string

	// Traced runs only: per-operation handler times and this round's
	// analyses from the injected pipeline, for timing Summary apart.
	mu       sync.Mutex
	handler  map[int]float64
	analyses map[int]*awam.Analysis
}

const clients = 2

// daemonFamilies sizes the daemon's program: small enough that one
// request finishes well under a second while response building stays
// quadratic in the program size.
const daemonFamilies = 32

// daemonMeasureRuns is how many times an optimize request runs main/0
// on each side; the report's OptimizedNS (run_ms) is the fastest, so a
// single slow run does not set it.
const daemonMeasureRuns = 3

// opInfo travels from the client to the injected pipeline in request
// headers and then in the request context.
type opInfo struct {
	op, parent, round int
	kind              string
}

type opKey struct{}

func (w *daemonLoad) setup(r *runner) error {
	w.prog = bench.WideProgramSeeded(daemonFamilies, r.cfg.seed)
	w.shared = w.prog.Source
	r.concurrent = true
	w.handler = map[int]float64{}
	w.analyses = map[int]*awam.Analysis{}
	r.input("daemon/"+w.prog.Name, w.prog.Source)

	cfg := serve.Config{MaxConcurrent: clients}
	if r.tr != nil {
		cfg.Analyze = w.tracedAnalyze(r)
		cfg.Backward = w.tracedBackward(r)
	}
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	h := s.Handler()
	if r.tr != nil {
		h = w.timeHandler(r, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.srv = &http.Server{Handler: h}
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		w.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
	}}
	// Prime the daemon's store with the unedited program.
	var resp api.AnalyzeResponse
	_, err = w.post("/v1/analyze", api.AnalyzeRequest{Source: w.prog.Source}, &resp, opInfo{op: -1, parent: -1, round: -1})
	return err
}

func (w *daemonLoad) close() {
	if w.srv == nil {
		return
	}
	w.client.CloseIdleConnections()
	w.srv.Close() //nolint:errcheck // closing listeners; nothing to report
	<-w.done
	w.srv = nil
}

// post sends one request and decodes the JSON reply into out. It
// returns the response body's size.
func (w *daemonLoad) post(path string, in, out any, info opInfo) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, w.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Perfbench-Op", fmt.Sprintf("%d %d %d %s", info.op, info.parent, info.round, info.kind))
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(data), fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return len(data), json.Unmarshal(data, out)
}

func (w *daemonLoad) round(r *runner, n int) {
	shared := w.shared
	var wg sync.WaitGroup
	edits := make([]string, clients)
	for c := 0; c < clients; c++ {
		fam := family(r.cfg.seed+2, n*clients+c, daemonFamilies)
		src := w.prog.Source + fmt.Sprintf("\np%d_use(edit_%d_%d).\n", fam, n, c)
		r.input(fmt.Sprintf("daemon/edit-%05d-%d", n, c), src)
		edits[c] = src
		wg.Add(1)
		go func(src string, fam int) {
			defer wg.Done()
			w.client1(r, n, src, shared, fam)
		}(src, fam)
	}
	wg.Wait()
	w.shared = edits[0]
	if r.tr != nil {
		w.timeSummaries(r)
		// Time the layers the daemon hides (parse, compile, specialize)
		// on this round's first edit, alone, so their allocation counts
		// are not mixed with the other client's.
		if v, err := r.load(edits[0], -1, -1, n); err == nil {
			r.specialized(v, -1, -1, n)
		}
	}
}

// client1 is one client's share of a round.
func (w *daemonLoad) client1(r *runner, n int, src, shared string, fam int) {
	in := hash(src)
	r.op(kAnalyze, "", n, func(op, root int) (outcome, error) {
		resp, err := w.analyze(r, src, op, root, n, kAnalyze)
		if err != nil {
			return outcome{}, err
		}
		return outcome{in: in, digest: digestSummaries(resp.Predicates), check: func() error {
			return checkSummaries(src, resp.Predicates)
		}}, nil
	})
	r.op(kReanalyze, "", n, func(op, root int) (outcome, error) {
		resp, err := w.analyze(r, shared, op, root, n, kReanalyze)
		if err != nil {
			return outcome{}, err
		}
		return outcome{in: hash(shared), digest: digestSummaries(resp.Predicates), check: func() error {
			if resp.Incremental == nil {
				return errors.New("response lacks incremental statistics")
			}
			if err := checkRepeat(resp.Incremental.SCCs, resp.Incremental.SCCs-resp.Incremental.WarmSCCs); err != nil {
				return err
			}
			return checkSummaries(shared, resp.Predicates)
		}}, nil
	})
	goal := fmt.Sprintf("p%d_main/0", fam)
	r.op(kBackward, "", n, func(op, root int) (outcome, error) {
		var resp api.BackwardResponse
		if err := w.timedPost(r, "/v1/backward", api.BackwardRequest{Source: src, Goals: []string{goal}}, &resp,
			opInfo{op: op, parent: root, round: n, kind: kBackward}); err != nil {
			return outcome{}, err
		}
		var ds []demand
		for _, d := range resp.Demands {
			ds = append(ds, demand{pred: d.Pred, call: d.Call, callable: d.Callable})
		}
		sortDemands(ds)
		return outcome{in: in + goal, digest: digestDemands(ds), check: func() error { return checkDemands(src, ds) }}, nil
	})
	r.op(kOptimize, "", n, func(op, root int) (outcome, error) {
		var resp api.OptimizeResponse
		if err := w.timedPost(r, "/v1/optimize", api.OptimizeRequest{Source: src, MeasureRuns: daemonMeasureRuns}, &resp,
			opInfo{op: op, parent: root, round: n, kind: kOptimize}); err != nil {
			return outcome{}, err
		}
		rep := resp.Report
		if rep == nil || !rep.Measured || rep.OptimizedNS <= 0 {
			return outcome{}, errors.New("optimize response lacks the measured run of main/0")
		}
		r.observe(kRun, "", float64(rep.OptimizedNS)/1e6)
		if r.tr != nil {
			r.tr.count("optimize.code_after", n, float64(rep.CodeAfter))
			r.tr.count("machine.steps", n, float64(rep.OptimizedSteps))
			rewrites := 0
			for _, p := range rep.Passes {
				if !p.Rejected {
					rewrites += p.Total
				}
			}
			r.tr.count("optimize.rewrites", n, float64(rewrites))
		}
		return outcome{in: in, digest: fmt.Sprint(rep.CodeBefore, rep.CodeAfter, rep.BaselineSteps, rep.OptimizedSteps),
			check: func() error { return checkOptimizeReport(src, rep) }}, nil
	})
}

// analyze posts src to /v1/analyze.
func (w *daemonLoad) analyze(r *runner, src string, op, root, n int, kind string) (*api.AnalyzeResponse, error) {
	var resp api.AnalyzeResponse
	if err := w.timedPost(r, "/v1/analyze", api.AnalyzeRequest{Source: src}, &resp,
		opInfo{op: op, parent: root, round: n, kind: kind}); err != nil {
		return nil, err
	}
	if r.tr != nil {
		if resp.Coalesced {
			r.tr.sum("serve.coalesced", 1)
		}
	}
	return &resp, nil
}

// timeSummaries times, for each analysis the daemon ran this round, one
// Summary per predicate, as the daemon builds its response. It runs
// after the round, alone, so the other client's requests do not slow it
// down or get slowed down by it.
func (w *daemonLoad) timeSummaries(r *runner) {
	w.mu.Lock()
	ops := make([]int, 0, len(w.analyses))
	for op := range w.analyses {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	analyses := w.analyses
	w.analyses = map[int]*awam.Analysis{}
	w.mu.Unlock()
	for _, op := range ops {
		a := analyses[op]
		s := r.tr.begin("awam.summary", -1, op)
		for _, p := range a.Predicates() {
			a.Summary(p)
		}
		r.tr.end(s)
	}
}

// timedPost is post with the client-side layer figures of a traced run.
func (w *daemonLoad) timedPost(r *runner, path string, in, out any, info opInfo) error {
	start := time.Now()
	size, err := w.post(path, in, out, info)
	if err != nil || r.tr == nil {
		return err
	}
	total := float64(time.Since(start).Nanoseconds()) / 1e6
	w.mu.Lock()
	h, ok := w.handler[info.op]
	delete(w.handler, info.op)
	w.mu.Unlock()
	// Transport and response size are taken on the edits' /v1/analyze
	// requests alone, as the handler time is.
	if info.kind != kAnalyze {
		return nil
	}
	if ok {
		r.tr.sample("serve.transport_ms", total-h)
	}
	r.tr.sample("serve.response_kb", float64(size)/1e3)
	return nil
}

// timeHandler records a serve.handler.KIND span around every request,
// KIND being the operation kind its header names (empty for the set-up
// request), and hands the operation to the injected pipeline through
// the request context. The routes cost very different amounts, so each
// kind's handler time is reported apart.
func (w *daemonLoad) timeHandler(r *runner, next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		var info opInfo
		if _, err := fmt.Sscanf(req.Header.Get("X-Perfbench-Op"), "%d %d %d %s",
			&info.op, &info.parent, &info.round, &info.kind); err != nil {
			info = opInfo{op: -1, parent: -1, round: -1}
		}
		s := r.tr.begin("serve.handler."+info.kind, info.parent, info.op)
		info.parent = s
		next.ServeHTTP(rw, req.WithContext(context.WithValue(req.Context(), opKey{}, info)))
		ms := r.tr.end(s)
		if info.op >= 0 {
			w.mu.Lock()
			w.handler[info.op] = ms
			w.mu.Unlock()
		}
	})
}

func infoOf(ctx context.Context) opInfo {
	if info, ok := ctx.Value(opKey{}).(opInfo); ok {
		return info
	}
	return opInfo{op: -1, parent: -1, round: -1}
}

// tracedAnalyze is the daemon's default analysis pipeline (Load, then
// AnalyzeContext) with a span around each call.
func (w *daemonLoad) tracedAnalyze(r *runner) func(context.Context, string, ...awam.AnalyzeOption) (*awam.Analysis, error) {
	return func(ctx context.Context, src string, opts ...awam.AnalyzeOption) (*awam.Analysis, error) {
		tr := r.tr
		info := infoOf(ctx)
		call := tr.begin("serve.analyze_call", info.parent, info.op)
		defer tr.end(call)
		s := tr.begin("awam.load", call, info.op)
		sys, err := awam.Load(src)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("awam.analyze", call, info.op)
		a, err := sys.AnalyzeContext(ctx, opts...)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		round := info.round
		if info.kind != kAnalyze {
			round = -1 // repeats may be coalesced: count edits only
		}
		noteFacade(tr, a, round)
		if info.kind == kAnalyze || info.kind == kReanalyze {
			w.mu.Lock()
			w.analyses[info.op] = a
			w.mu.Unlock()
		}
		return a, nil
	}
}

// tracedBackward is the daemon's default demand-query pipeline with a
// span around each call.
func (w *daemonLoad) tracedBackward(r *runner) func(context.Context, string, ...awam.BackwardOption) (*awam.BackwardAnalysis, error) {
	return func(ctx context.Context, src string, opts ...awam.BackwardOption) (*awam.BackwardAnalysis, error) {
		tr := r.tr
		info := infoOf(ctx)
		call := tr.begin("serve.backward_call", info.parent, info.op)
		defer tr.end(call)
		s := tr.begin("awam.load", call, info.op)
		sys, err := awam.Load(src)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("backward.analyze", call, info.op)
		b, err := sys.AnalyzeBackwardContext(ctx, opts...)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		st := b.Stats()
		tr.sample("backward.condense_ms", float64(st.CondenseMS))
		tr.sample("backward.solve_ms", float64(st.SolveMS))
		tr.count("backward.visited_sccs", info.round, float64(st.VisitedSCCs))
		tr.count("backward.executed_sccs", info.round, float64(st.ExecutedSCCs))
		tr.count("backward.steps", info.round, float64(st.Steps))
		return b, nil
	}
}

// noteFacade records the counters a facade analysis reports.
func noteFacade(tr *tracer, a *awam.Analysis, round int) {
	m := a.Metrics()
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	tr.sample("core.analyze_ms", ms(m.ExecuteTime+m.FinalizeTime))
	tr.sample("core.execute_ms", ms(m.ExecuteTime))
	tr.sample("core.table_ms", ms(m.TableTime))
	tr.sample("core.finalize_ms", ms(m.FinalizeTime))
	st := a.Stats()
	tr.count("core.steps", round, float64(st.Exec))
	tr.count("core.iterations", round, float64(st.Iterations))
	tr.count("core.table_size", round, float64(st.TableSize))
	tr.count("core.heap_cells", round, float64(m.HeapHighWater))
	tr.count("domain.patterns", round, float64(m.InternedPatterns))
	tr.ratio("core.table_hit_ratio", float64(m.TableHits), float64(m.TableHits+m.TableMisses))
	tr.ratio("domain.intern_hit_ratio", float64(m.InternHits), float64(m.InternHits+m.InternMisses))
	tr.ratio("domain.lub_hit_ratio", float64(m.LubCacheHits), float64(m.LubCacheHits+m.LubCacheMisses))
	tr.ratio("cache.hit_ratio", float64(m.CacheHits), float64(m.CacheHits+m.CacheMisses))
	tr.count("cache.gets", round, float64(m.CacheHits+m.CacheMisses))
	tr.sample("cache.resident_mb", float64(m.CacheBytes)/1e6)
	if in, ok := a.Incremental(); ok {
		tr.count("inc.sccs", round, float64(in.SCCs))
		tr.count("inc.executed_sccs", round, float64(in.SCCs-in.WarmSCCs))
	}
}

// digestSummaries is an output digest of a daemon analysis.
func digestSummaries(preds map[string]awam.Summary) string {
	data, _ := json.Marshal(preds) // map keys marshal sorted; cannot fail
	return hash(string(data))
}
