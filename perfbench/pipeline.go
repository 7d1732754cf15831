package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"awam"
	"awam/internal/backward"
	"awam/internal/cache"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/inc"
	"awam/internal/machine"
	"awam/internal/optimize"
	"awam/internal/parser"
	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// This file holds the operations every in-process workload is made of,
// each in two forms. Untraced, an operation calls the public awam API
// exactly as a user would. Traced, it calls the layers behind that API
// one by one, in the order the facade calls them, with a span around
// each call and the counters each call returns recorded; both forms
// must produce the same outputs.

// version is one loaded program version.
type version struct {
	sys *awam.System // untraced

	// Traced: the layers' own values.
	tab  *term.Tab
	ast  *term.Program
	mod  *wam.Module
	spec *specialize.Program
}

// forward is a finished forward analysis.
type forward struct {
	marshal string
	fa      *awam.Analysis // untraced
	res     *core.Result   // traced
	// sccs and executed count the components of a store-backed run and
	// those it executed (not served from the store).
	sccs, executed int
}

// store is a summary store shared by a workload's operations: the
// facade's Store untraced, the cache layer behind a timing wrapper and
// an incremental engine traced.
type store struct {
	facade awam.Store
	raw    *cache.Store
	timed  *timingStore
	eng    *inc.Engine
}

func (r *runner) newStore() (*store, error) {
	if r.tr == nil {
		st, err := awam.NewStore()
		if err != nil {
			return nil, err
		}
		return &store{facade: st}, nil
	}
	raw, err := cache.New()
	if err != nil {
		return nil, err
	}
	ts := &timingStore{inner: raw}
	return &store{raw: raw, timed: ts, eng: inc.NewEngine(ts)}, nil
}

// load parses and compiles src (awam.Load).
func (r *runner) load(src string, op, parent, round int) (*version, error) {
	if r.tr == nil {
		sys, err := awam.Load(src)
		if err != nil {
			return nil, err
		}
		return &version{sys: sys}, nil
	}
	tr := r.tr
	v := &version{tab: term.NewTab()}
	id := tr.begin("awam.load", parent, op)
	var err error
	s := tr.begin("parser.parse", id, op)
	mb := allocMB(func() { v.ast, err = parser.ParseProgram(v.tab, src) })
	tr.end(s)
	tr.sample("parser.alloc_mb", mb)
	if err != nil {
		tr.end(id)
		return nil, fmt.Errorf("%w: %w", awam.ErrParse, err)
	}
	s = tr.begin("compiler.compile", id, op)
	mb = allocMB(func() { v.mod, err = compiler.Compile(v.tab, v.ast) })
	tr.end(s)
	tr.sample("compiler.alloc_mb", mb)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", awam.ErrCompile, err)
	}
	tr.count("compiler.code_size", round, float64(v.mod.Size()))
	return v, nil
}

// specialized builds the version's specialized transfer streams once,
// as System.specProgram does on the first analysis.
func (r *runner) specialized(v *version, op, parent, round int) *specialize.Program {
	if v.spec != nil {
		return v.spec
	}
	tr := r.tr
	s := tr.begin("specialize.build", parent, op)
	mb := allocMB(func() {
		plan := inc.Condense(v.mod, core.Config{})
		comps := make([][]term.Functor, len(plan.SCCs))
		for i, scc := range plan.SCCs {
			comps[i] = scc.Members
		}
		v.spec = specialize.Build(v.mod, comps, specialize.StaticProfile(v.mod),
			specialize.Options{Fuse: true, PreIntern: true})
	})
	tr.end(s)
	tr.sample("specialize.alloc_mb", mb)
	_, _, fused, _ := v.spec.Stats()
	tr.count("specialize.fused_sites", round, float64(fused))
	return v.spec
}

// analyze runs a forward analysis with the facade defaults, through st
// when it is not nil, and marshals it.
func (r *runner) analyze(v *version, st *store, op, parent, round int) (*forward, error) {
	ctx := context.Background()
	if r.tr == nil {
		var opts []awam.AnalyzeOption
		if st != nil {
			opts = append(opts, awam.WithSummaryCache(st.facade))
		}
		a, err := v.sys.AnalyzeContext(ctx, opts...)
		if err != nil {
			return nil, err
		}
		f := &forward{marshal: a.Marshal(), fa: a}
		if in, ok := a.Incremental(); ok {
			f.sccs, f.executed = in.SCCs, in.SCCs-in.WarmSCCs
		}
		return f, nil
	}
	tr := r.tr
	cfg := core.DefaultConfig()
	cfg.Spec = r.specialized(v, op, parent, round)
	f := &forward{}
	var err error
	if st == nil {
		s := tr.begin("core.analyze", parent, op)
		mb := allocMB(func() { f.res, err = core.NewWith(v.mod, cfg).AnalyzeAllContext(ctx) })
		ms := tr.end(s)
		tr.sample("core.analyze_ms", ms)
		tr.sample("core.alloc_mb", mb)
	} else {
		st.timed.begin(tr, op)
		s := tr.begin("inc.engine", parent, op)
		st.timed.parent = s
		var ir *inc.Result
		start := time.Now()
		mb := allocMB(func() { ir, err = st.eng.AnalyzeAll(ctx, v.mod, cfg) })
		ms := tr.end(s)
		get, put, gets, puts, first := st.timed.finish()
		if err == nil {
			f.res = ir.Result
			f.sccs, f.executed = len(ir.Plan.SCCs), len(ir.Plan.SCCs)-ir.WarmSCCs
			m := ir.Metrics
			core := float64((m.ExecuteTime + m.FinalizeTime).Nanoseconds()) / 1e6
			tr.sample("core.analyze_ms", core)
			tr.sample("core.alloc_mb", mb)
			tr.sample("inc.self_ms", ms-get-put-core)
			if !first.IsZero() {
				tr.sample("inc.plan_ms", float64(first.Sub(start).Nanoseconds())/1e6)
			}
			tr.sample("cache.get_ms", get)
			tr.sample("cache.put_ms", put)
			tr.count("cache.gets", round, float64(gets))
			tr.count("cache.puts", round, float64(puts))
			tr.ratio("cache.hit_ratio", float64(ir.WarmSCCs), float64(len(ir.Plan.SCCs)))
			tr.sample("cache.resident_mb", float64(st.raw.Stats().Bytes)/1e6)
			tr.count("inc.sccs", round, float64(f.sccs))
			tr.count("inc.executed_sccs", round, float64(f.executed))
		}
	}
	if err != nil {
		return nil, err
	}
	r.noteCore(f.res.Metrics, f.res, round)
	s := tr.begin("awam.marshal", parent, op)
	f.marshal = f.res.Marshal()
	tr.end(s)
	return f, nil
}

// noteCore records the fixpoint's own counters (core.Result.Metrics).
func (r *runner) noteCore(m *core.Metrics, res *core.Result, round int) {
	tr := r.tr
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	tr.sample("core.execute_ms", ms(m.ExecuteTime))
	tr.sample("core.table_ms", ms(m.TableTime))
	tr.sample("core.finalize_ms", ms(m.FinalizeTime))
	tr.count("core.steps", round, float64(res.Steps))
	tr.count("core.iterations", round, float64(res.Iterations))
	tr.count("core.table_size", round, float64(res.TableSize))
	tr.count("core.heap_cells", round, float64(m.HeapHighWater))
	tr.count("domain.patterns", round, float64(m.InternedPatterns))
	tr.ratio("core.table_hit_ratio", float64(m.TableHits), float64(m.TableHits+m.TableMisses))
	tr.ratio("domain.intern_hit_ratio", float64(m.InternHits), float64(m.InternHits+m.InternMisses))
	tr.ratio("domain.lub_hit_ratio", float64(m.LubCacheHits), float64(m.LubCacheHits+m.LubCacheMisses))
}

// demand is one predicate's weakest demand from a backward query.
type demand struct {
	pred, call string
	callable   bool
}

// backwardQuery runs a backward demand query from goal ("name/arity"),
// against st when it is not nil.
func (r *runner) backwardQuery(v *version, goal string, st *store, op, parent, round int) ([]demand, error) {
	ctx := context.Background()
	if r.tr == nil {
		opts := []awam.BackwardOption{awam.WithGoal(goal)}
		if st != nil {
			opts = append(opts, awam.WithBackwardStore(st.facade))
		}
		b, err := v.sys.AnalyzeBackwardContext(ctx, opts...)
		if err != nil {
			return nil, err
		}
		var out []demand
		for _, d := range b.Demands() {
			out = append(out, demand{pred: d.Pred, call: d.Call, callable: d.Callable})
		}
		return out, nil
	}
	tr := r.tr
	fn, err := indicator(v.tab, goal)
	if err != nil {
		return nil, err
	}
	var eng *backward.Engine
	if st != nil {
		st.timed.begin(tr, op)
		eng = backward.NewEngine(st.timed)
	} else {
		eng = backward.NewEngine(nil)
	}
	s := tr.begin("backward.analyze", parent, op)
	if st != nil {
		st.timed.parent = s
	}
	res, err := eng.Analyze(ctx, v.mod, v.ast, backward.Config{Goals: []term.Functor{fn}})
	tr.end(s)
	if st != nil {
		st.timed.finish()
	}
	if err != nil {
		return nil, err
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	tr.sample("backward.condense_ms", ms(res.CondenseDur))
	tr.sample("backward.solve_ms", ms(res.SolveDur))
	tr.count("backward.visited_sccs", round, float64(res.VisitedSCCs))
	tr.count("backward.executed_sccs", round, float64(res.ExecutedSCCs))
	tr.count("backward.steps", round, float64(res.Steps))
	var out []demand
	for _, fn := range res.Predicates() {
		d := demand{pred: v.tab.FuncString(fn)}
		if p, ok := res.DemandFor(fn); ok && p != nil {
			d.callable, d.call = true, p.String(v.tab)
		}
		out = append(out, d)
	}
	sortDemands(out)
	return out, nil
}

// indicator resolves "name/arity" the way the facade does.
func indicator(tab *term.Tab, s string) (term.Functor, error) {
	i := strings.LastIndex(s, "/")
	if i <= 0 {
		return term.Functor{}, fmt.Errorf("goal %q is not name/arity", s)
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil || n < 0 {
		return term.Functor{}, fmt.Errorf("goal %q has a bad arity", s)
	}
	return tab.Func(s[:i], n), nil
}

// optimized is a gated optimizer's output program.
type optimized struct {
	sys *awam.System // untraced
	tab *term.Tab    // traced
	mod *wam.Module
}

// optimizeVersion runs the gated optimizer with the facade's defaults,
// less the timing measurement (WithMeasureRuns(0)).
func (r *runner) optimizeVersion(v *version, f *forward, op, parent, round int) (*optimized, error) {
	if r.tr == nil {
		opt, _, err := v.sys.Optimize(f.fa, awam.WithMeasureRuns(0))
		if err != nil {
			return nil, err
		}
		return &optimized{sys: opt}, nil
	}
	tr := r.tr
	var goals []string
	if v.mod.Proc(v.tab.Func("main", 0)) != nil {
		goals = []string{"main"}
	}
	gate := &optimize.Gate{Goals: goals}
	pl := optimize.Pipeline{Gate: gate}
	s := tr.begin("optimize.pipeline", parent, op)
	mod, outcomes, err := pl.Run(v.mod, f.res)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", awam.ErrOptimize, err)
	}
	rewrites := 0
	for _, oc := range outcomes {
		if !oc.Rejected {
			rewrites += oc.Stats.Total
		}
	}
	tr.count("optimize.rewrites", round, float64(rewrites))
	tr.count("optimize.code_after", round, float64(mod.Size()))
	return &optimized{tab: v.tab, mod: mod}, nil
}

// gateCost times one gate check of the optimized module against the
// original, apart from the operation (the pipeline's gate runs inside
// Pipeline.Run where it cannot be timed from outside).
func (r *runner) gateCost(v *version, o *optimized, op int) {
	var goals []string
	if v.mod.Proc(v.tab.Func("main", 0)) != nil {
		goals = []string{"main"}
	}
	s := r.tr.begin("optimize.gate", -1, op)
	(&optimize.Gate{Goals: goals}).Check(v.mod, o.mod) //nolint:errcheck // timed only; the pipeline already gated
	r.tr.end(s)
}

// runMain runs the optimized main/0 on the concrete machine.
func (r *runner) runMain(o *optimized, op, parent, round int) (bool, error) {
	if r.tr == nil {
		return o.sys.RunMain()
	}
	m := machine.New(o.mod)
	m.Out = io.Discard
	s := r.tr.begin("machine.run", parent, op)
	ok, err := m.RunMain()
	r.tr.end(s)
	r.tr.count("machine.steps", round, float64(m.Steps))
	return ok, err
}

// query returns the first answer to goal on the optimized program, as
// variable bindings written as Prolog terms.
func (o *optimized) query(goal string) (map[string]string, bool, error) {
	if o.sys != nil {
		sol, err := o.sys.Run(goal)
		if err != nil {
			return nil, false, err
		}
		return sol.Bindings, sol.OK, nil
	}
	m := machine.New(o.mod)
	m.Out = io.Discard
	sol, err := m.Solve(goal)
	if err != nil {
		return nil, false, err
	}
	out := make(map[string]string)
	if sol.OK {
		for name, tm := range sol.Bindings() {
			out[name] = o.tab.Write(tm)
		}
	}
	return out, sol.OK, nil
}

// timingStore wraps the cache layer for the incremental and backward
// engines: it times every Get and Put as a span and forwards the
// optional batch Prefetch and end-of-run Flush the engines look for.
// begin and finish bracket one engine call; calls do not overlap.
type timingStore struct {
	inner  *cache.Store
	tr     *tracer
	op     int
	parent int

	get, put   time.Duration
	gets, puts int
	first      time.Time
}

func (t *timingStore) begin(tr *tracer, op int) {
	t.tr, t.op, t.parent = tr, op, -1
	t.get, t.put, t.gets, t.puts, t.first = 0, 0, 0, 0, time.Time{}
}

// finish returns the bracketed call's store time and traffic, and when
// the engine first touched the store.
func (t *timingStore) finish() (getMS, putMS float64, gets, puts int, first time.Time) {
	return float64(t.get.Nanoseconds()) / 1e6, float64(t.put.Nanoseconds()) / 1e6, t.gets, t.puts, t.first
}

func (t *timingStore) touch(start time.Time) {
	if t.first.IsZero() {
		t.first = start
	}
}

func (t *timingStore) Get(fp cache.Fingerprint) ([]byte, bool) {
	start := time.Now()
	t.touch(start)
	data, ok := t.inner.Get(fp)
	end := time.Now()
	t.get += end.Sub(start)
	t.gets++
	t.tr.add("cache.get", start, end, t.parent, t.op)
	return data, ok
}

func (t *timingStore) Put(fp cache.Fingerprint, data []byte) {
	start := time.Now()
	t.touch(start)
	t.inner.Put(fp, data)
	end := time.Now()
	t.put += end.Sub(start)
	t.puts++
	t.tr.add("cache.put", start, end, t.parent, t.op)
}

func (t *timingStore) Stats() cache.Stats { return t.inner.Stats() }

func (t *timingStore) Prefetch(fps []cache.Fingerprint) {
	start := time.Now()
	t.touch(start)
	t.inner.Prefetch(fps)
	t.get += time.Since(start)
	t.tr.add("cache.prefetch", start, time.Now(), t.parent, t.op)
}

func (t *timingStore) Flush() {
	start := time.Now()
	t.inner.Flush()
	t.put += time.Since(start)
	t.tr.add("cache.flush", start, time.Now(), t.parent, t.op)
}

// disasm is the optimized program's code listing.
func (o *optimized) disasm() string {
	if o.sys != nil {
		return o.sys.Disasm()
	}
	return o.mod.Disasm()
}

// boolDigest is the output digest of a yes/no answer.
func boolDigest(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
