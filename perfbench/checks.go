package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"awam"
	"awam/internal/baseline"
	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/parser"
	"awam/internal/refint"
	"awam/internal/term"
)

// The checks compare each operation's output with a computation made
// apart from the code path under test, or test a property the method
// must have. None compares with a stored copy of earlier output.

// oracle computes and caches the independent results per source text.
// Checks run one at a time after the measured phase.
type oracle struct {
	baseline  map[string]string
	storeless map[string]string
	main      map[string]bool
}

func newOracle() *oracle {
	return &oracle{baseline: map[string]string{}, storeless: map[string]string{}, main: map[string]bool{}}
}

// parseExpanded parses src into a fresh table and expands its control
// constructs, as the baseline and the reference interpreter expect.
func parseExpanded(src string) (*term.Tab, *term.Program, *term.Program, error) {
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, src)
	if err != nil {
		return nil, nil, nil, err
	}
	exp, err := compiler.ExpandedProgram(tab, prog)
	if err != nil {
		return nil, nil, nil, err
	}
	return tab, prog, exp, nil
}

// baselineMarshal is the baseline meta-interpreter's analysis of src
// from main/0: the same abstract domain, computed by interpreting the
// source clauses instead of compiled code.
func (o *oracle) baselineMarshal(src string) (string, error) {
	key := hash(src)
	if m, ok := o.baseline[key]; ok {
		return m, nil
	}
	tab, _, exp, err := parseExpanded(src)
	if err != nil {
		return "", err
	}
	res, err := baseline.New(tab, exp).AnalyzeMain()
	if err != nil {
		return "", fmt.Errorf("baseline: %w", err)
	}
	o.baseline[key] = res.Marshal()
	return o.baseline[key], nil
}

// storelessMarshal is a from-scratch worklist analysis of src with no
// summary store, the result a store-backed analysis must reproduce.
func (o *oracle) storelessMarshal(src string) (string, error) {
	key := hash(src)
	if m, ok := o.storeless[key]; ok {
		return m, nil
	}
	sys, err := awam.Load(src)
	if err != nil {
		return "", err
	}
	a, err := sys.Analyze(awam.WithStrategy(awam.Worklist))
	if err != nil {
		return "", err
	}
	o.storeless[key] = a.Marshal()
	return o.storeless[key], nil
}

// mainSucceeds asks the reference SLD interpreter whether main/0
// succeeds.
func (o *oracle) mainSucceeds(src string) (bool, error) {
	key := hash(src)
	if ok, seen := o.main[key]; seen {
		return ok, nil
	}
	tab, _, exp, err := parseExpanded(src)
	if err != nil {
		return false, err
	}
	in := refint.New(tab, exp)
	found := false
	if _, err := in.Solve([]*term.Term{term.MkAtom(tab.Intern("main"))}, func() bool {
		found = true
		return false
	}); err != nil {
		return false, fmt.Errorf("refint: %w", err)
	}
	o.main[key] = found
	return found, nil
}

// checkForward: a forward analysis marshals exactly like the baseline.
func (o *oracle) checkForward(src, got string) error {
	want, err := o.baselineMarshal(src)
	if err != nil {
		return err
	}
	return sameText("forward analysis", "baseline", got, want)
}

// checkStoreless: a store-backed analysis marshals exactly like a
// storeless one.
func (o *oracle) checkStoreless(src, got string) error {
	want, err := o.storelessMarshal(src)
	if err != nil {
		return err
	}
	return sameText("store-backed analysis", "storeless analysis", got, want)
}

// sameText reports the first line where got and want differ.
func sameText(what, ref, got, want string) error {
	if got == want {
		return nil
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Errorf("%s differs from the %s at line %d: got %q, want %q", what, ref, i+1, g, w)
		}
	}
	return fmt.Errorf("%s differs from the %s", what, ref)
}

// checkDemands: every callable demand admits forward success, that is,
// a forward analysis entered at the demand pattern does not make the
// predicate fail. A query must also yield at least one callable demand.
func checkDemands(src string, ds []demand) error {
	sys, err := awam.Load(src)
	if err != nil {
		return err
	}
	callable := 0
	for _, d := range ds {
		if !d.callable {
			continue
		}
		callable++
		a, err := sys.Analyze(awam.WithEntry(d.call), awam.WithStrategy(awam.Worklist))
		if err != nil {
			return fmt.Errorf("forward analysis from demand %s: %w", d.call, err)
		}
		s, ok := a.Summary(d.pred)
		if !ok || !s.Succeeds {
			return fmt.Errorf("demand %s is refuted by forward analysis (no success)", d.call)
		}
	}
	if callable == 0 {
		return errors.New("backward query produced no callable demand")
	}
	return nil
}

// checkBinding: the first answer to the program's query binds each
// variable to the hand-written expected value.
func checkBinding(p bench.Program, got map[string]string, ok bool) error {
	if p.Query == "" {
		return nil
	}
	if !ok {
		return fmt.Errorf("%s: query %s has no answer", p.Name, p.Query)
	}
	for name, want := range p.WantBinding {
		if got[name] != want {
			return fmt.Errorf("%s: %s = %s, want %s", p.Name, name, got[name], want)
		}
	}
	return nil
}

// checkMain: main/0 of the optimized program succeeds exactly when the
// reference interpreter says the source's main/0 does.
func (o *oracle) checkMain(src string, got bool) error {
	want, err := o.mainSucceeds(src)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("optimized main/0 succeeded=%t, reference interpreter says %t", got, want)
	}
	return nil
}

// checkOptimizeReport: a daemon's optimize report agrees with the
// library's optimizer run on the same source: the same instruction
// counts before and after, and the same executed-instruction counts of
// the measured unoptimized and optimized main/0 (the machine is
// deterministic, so the counts repeat exactly).
func checkOptimizeReport(src string, got *awam.OptimizeReport) error {
	sys, err := awam.Load(src)
	if err != nil {
		return err
	}
	a, err := sys.Analyze()
	if err != nil {
		return err
	}
	_, want, err := sys.Optimize(a, awam.WithMeasureRuns(1))
	if err != nil {
		return err
	}
	if !want.Measured || want.OptimizedSteps <= 0 {
		return errors.New("library optimizer did not measure main/0")
	}
	type counts struct{ before, after, baseSteps, optSteps int64 }
	g := counts{int64(got.CodeBefore), int64(got.CodeAfter), got.BaselineSteps, got.OptimizedSteps}
	w := counts{int64(want.CodeBefore), int64(want.CodeAfter), want.BaselineSteps, want.OptimizedSteps}
	if g != w {
		return fmt.Errorf("optimize report code %d->%d, main/0 steps %d->%d; library gives code %d->%d, steps %d->%d",
			g.before, g.after, g.baseSteps, g.optSteps, w.before, w.after, w.baseSteps, w.optSteps)
	}
	return nil
}

// checkRepeat: re-analysing a version already analysed executes no
// component.
func checkRepeat(sccs, executed int) error {
	if sccs == 0 {
		return errors.New("repeat ran without the summary store")
	}
	if executed != 0 {
		return fmt.Errorf("repeat executed %d of %d components, want 0", executed, sccs)
	}
	return nil
}

// checkCone: an edit of pred executes only components of pred's
// ascending cone (pred and everything that calls it, transitively),
// which is computed here from the source's clauses.
func checkCone(src, pred string, sccs, executed int) error {
	cone, err := coneSCCs(src, pred)
	if err != nil {
		return err
	}
	if sccs == 0 {
		return errors.New("edit ran without the summary store")
	}
	if executed < 1 || executed > cone {
		return fmt.Errorf("edit of %s executed %d components; its ascending cone has %d", pred, executed, cone)
	}
	return nil
}

// coneSCCs counts the strongly connected components of the call graph
// that lie in pred's ascending cone.
func coneSCCs(src, pred string) (int, error) {
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, src)
	if err != nil {
		return 0, err
	}
	target, err := indicator(tab, pred)
	if err != nil {
		return 0, err
	}
	if _, ok := prog.Preds[target]; !ok {
		return 0, fmt.Errorf("%s is not defined", pred)
	}
	calls := callGraph(tab, prog)
	callers := map[term.Functor][]term.Functor{}
	for f, cs := range calls {
		for _, c := range cs {
			callers[c] = append(callers[c], f)
		}
	}
	cone := map[term.Functor]bool{target: true}
	stack := []term.Functor{target}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range callers[f] {
			if !cone[c] {
				cone[c] = true
				stack = append(stack, c)
			}
		}
	}
	// An ascending cone is closed under callers, so a component with one
	// member in it lies in it entirely: count components by Tarjan over
	// the cone.
	index := map[term.Functor]int{}
	low := map[term.Functor]int{}
	on := map[term.Functor]bool{}
	var st []term.Functor
	n, comps := 0, 0
	var visit func(f term.Functor)
	visit = func(f term.Functor) {
		index[f], low[f] = n, n
		n++
		st = append(st, f)
		on[f] = true
		for _, c := range calls[f] {
			if !cone[c] {
				continue
			}
			if _, seen := index[c]; !seen {
				visit(c)
				low[f] = min(low[f], low[c])
			} else if on[c] {
				low[f] = min(low[f], index[c])
			}
		}
		if low[f] == index[f] {
			for {
				top := st[len(st)-1]
				st = st[:len(st)-1]
				on[top] = false
				if top == f {
					break
				}
			}
			comps++
		}
	}
	fs := make([]term.Functor, 0, len(cone))
	for f := range cone {
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool { return tab.FuncString(fs[i]) < tab.FuncString(fs[j]) })
	for _, f := range fs {
		if _, seen := index[f]; !seen {
			visit(f)
		}
	}
	return comps, nil
}

// callGraph maps each defined predicate to the defined predicates its
// clause bodies call, looking through conjunction, disjunction,
// if-then-else, negation and call/1.
func callGraph(tab *term.Tab, prog *term.Program) map[term.Functor][]term.Functor {
	control := map[term.Functor]bool{
		tab.Func(",", 2): true, tab.Func(";", 2): true, tab.Func("->", 2): true,
		tab.Func("\\+", 1): true, tab.Func("call", 1): true,
	}
	out := map[term.Functor][]term.Functor{}
	for f, idx := range prog.Preds {
		seen := map[term.Functor]bool{}
		var walk func(g *term.Term)
		walk = func(g *term.Term) {
			if g.Kind != term.KAtom && g.Kind != term.KStruct {
				return
			}
			fn := g.Fn
			if control[fn] {
				for _, a := range g.Args {
					walk(a)
				}
				return
			}
			if _, defined := prog.Preds[fn]; defined && !seen[fn] {
				seen[fn] = true
				out[f] = append(out[f], fn)
			}
		}
		for _, i := range idx {
			for _, g := range prog.Clauses[i].Body {
				walk(g)
			}
		}
	}
	return out
}

// checkSummaries: a daemon response's per-predicate calling and success
// patterns equal the lubbed calling and success patterns of the
// baseline's analysis of the same source.
func checkSummaries(src string, got map[string]awam.Summary) error {
	tab, _, exp, err := parseExpanded(src)
	if err != nil {
		return err
	}
	res, err := baseline.New(tab, exp).AnalyzeMain()
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	preds := res.Predicates()
	if len(got) != len(preds) {
		return fmt.Errorf("response has %d predicates, baseline %d", len(got), len(preds))
	}
	for _, fn := range preds {
		p := tab.FuncString(fn)
		var call, succ string
		if cp := res.CallFor(fn); cp != nil {
			call = cp.String(tab)
		}
		sp := res.SuccessFor(fn)
		if sp != nil {
			succ = sp.String(tab)
		}
		g, ok := got[p]
		if !ok {
			return fmt.Errorf("response lacks %s", p)
		}
		if g.Call != call || g.Success != succ || g.Succeeds != (sp != nil) {
			return fmt.Errorf("%s: response call %q success %q, baseline call %q success %q",
				p, g.Call, g.Success, call, succ)
		}
	}
	return nil
}

func sortDemands(ds []demand) {
	sort.Slice(ds, func(i, j int) bool { return ds[i].pred < ds[j].pred })
}

// digestDemands is an output digest of a backward query.
func digestDemands(ds []demand) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%s %t %s\n", d.pred, d.callable, d.call)
	}
	return hash(b.String())
}
