package main

import (
	"errors"
	"strings"
	"testing"

	"awam"
	"awam/internal/bench"
)

// failedOps runs one operation whose output is checked by check and
// returns how many operations the run counts as failed.
func failedOps(t *testing.T, check func() error) int {
	t.Helper()
	r := newRunner(config{})
	r.op(kAnalyze, "", 0, func(int, int) (outcome, error) {
		return outcome{in: "in", digest: "out", check: check}, nil
	})
	r.runChecks()
	if r.attempted != 1 {
		t.Fatalf("attempted = %d, want 1", r.attempted)
	}
	return r.failed
}

// expectVerdicts asserts the right output passes and the wrong one is
// counted as a failed operation.
func expectVerdicts(t *testing.T, right, wrong func() error) {
	t.Helper()
	if err := right(); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	if n := failedOps(t, wrong); n != 1 {
		t.Fatalf("wrong output: %d failed ops, want 1", n)
	}
}

func program(t *testing.T, name string) bench.Program {
	t.Helper()
	p, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("no program %s", name)
	}
	return p
}

func marshal(t *testing.T, src string, opts ...awam.AnalyzeOption) string {
	t.Helper()
	sys, err := awam.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Analyze(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a.Marshal()
}

func TestForwardCheckRejectsDroppedLine(t *testing.T) {
	p := program(t, "nreverse")
	o := newOracle()
	got := marshal(t, p.Source)
	lines := strings.Split(got, "\n")
	dropped := strings.Join(append(append([]string(nil), lines[:1]...), lines[2:]...), "\n")
	expectVerdicts(t,
		func() error { return o.checkForward(p.Source, got) },
		func() error { return o.checkForward(p.Source, dropped) })
}

func TestDemandCheckRejectsRefutedDemand(t *testing.T) {
	src := "p(a).\nmain :- p(_).\n"
	expectVerdicts(t,
		func() error { return checkDemands(src, []demand{{pred: "p/1", call: "p(any)", callable: true}}) },
		func() error { return checkDemands(src, []demand{{pred: "p/1", call: "p(int)", callable: true}}) })
	if err := checkDemands(src, []demand{{pred: "p/1"}}); err == nil {
		t.Fatal("a query with no callable demand passed")
	}
}

func TestBindingCheckRejectsWrongBinding(t *testing.T) {
	p := program(t, "log10")
	want := p.WantBinding["D"]
	expectVerdicts(t,
		func() error { return checkBinding(p, map[string]string{"D": want}, true) },
		func() error { return checkBinding(p, map[string]string{"D": want + " + 0"}, true) })
	if err := checkBinding(p, nil, false); err == nil {
		t.Fatal("a query without an answer passed")
	}
}

func TestMainCheckFollowsReferenceInterpreter(t *testing.T) {
	o := newOracle()
	expectVerdicts(t,
		func() error { return o.checkMain("main :- fail.\n", false) },
		func() error { return o.checkMain("main :- fail.\n", true) })
	expectVerdicts(t,
		func() error { return o.checkMain("main.\n", true) },
		func() error { return o.checkMain("main.\n", false) })
}

func TestWarmChecksRejectExtraEntryAndExtraWork(t *testing.T) {
	src := bench.WideProgramSeeded(4, 3).Source
	o := newOracle()
	got := marshal(t, src, awam.WithStrategy(awam.Worklist))
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	extra := got + lines[len(lines)-1] + "\n"
	expectVerdicts(t,
		func() error { return o.checkStoreless(src, got) },
		func() error { return o.checkStoreless(src, extra) })
	expectVerdicts(t,
		func() error { return checkRepeat(30, 0) },
		func() error { return checkRepeat(30, 1) })
	// p1_use is called by p1_check, p1_main and main: a cone of four
	// components.
	expectVerdicts(t,
		func() error { return checkCone(src, "p1_use/1", 30, 4) },
		func() error { return checkCone(src, "p1_use/1", 30, 5) })
}

func TestSummaryCheckRejectsWrongPattern(t *testing.T) {
	src := bench.WideProgramSeeded(3, 2).Source
	sys, err := awam.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Analyze(awam.WithStrategy(awam.Worklist))
	if err != nil {
		t.Fatal(err)
	}
	good := map[string]awam.Summary{}
	for _, p := range a.Predicates() {
		good[p], _ = a.Summary(p)
	}
	bad := map[string]awam.Summary{}
	for k, v := range good {
		bad[k] = v
	}
	s := bad["p0_len/2"]
	s.Success = "p0_len(any, any)"
	bad["p0_len/2"] = s
	expectVerdicts(t,
		func() error { return checkSummaries(src, good) },
		func() error { return checkSummaries(src, bad) })
}

func TestOptimizeReportCheckRejectsWrongSteps(t *testing.T) {
	src := program(t, "qsort").Source
	sys, err := awam.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	_, good, err := sys.Optimize(a, awam.WithMeasureRuns(1))
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.OptimizedSteps++
	expectVerdicts(t,
		func() error { return checkOptimizeReport(src, good) },
		func() error { return checkOptimizeReport(src, &bad) })
}

func TestFailedOperationCounts(t *testing.T) {
	r := newRunner(config{})
	for i := 0; i < 3; i++ {
		r.op(kBackward, "", 0, func(int, int) (outcome, error) { return outcome{}, errors.New("boom") })
	}
	// Identical outputs share one check; each of their ops fails with it.
	for i := 0; i < 2; i++ {
		r.op(kRun, "", 0, func(int, int) (outcome, error) {
			return outcome{in: "x", digest: "y", check: func() error { return errors.New("wrong") }}, nil
		})
	}
	r.runChecks()
	if r.attempted != 5 || r.failed != 5 {
		t.Fatalf("attempted %d failed %d, want 5 and 5", r.attempted, r.failed)
	}
}
