package main

import (
	"fmt"

	"awam/internal/bench"
)

// wideCold analyses one seeded wide program cold, with no summary
// store: each round loads it afresh, analyses it with the facade
// defaults, queries one family backward and analyses the loaded version
// a second time; every third round also optimizes it and runs the
// optimized main/0.
type wideCold struct {
	prog   bench.Program
	oracle *oracle
}

func (w *wideCold) setup(r *runner) error {
	w.prog = bench.WideProgramSeeded(r.cfg.families, r.cfg.seed)
	w.oracle = newOracle()
	r.input("wide_cold/"+w.prog.Name, w.prog.Source)
	// Warm the process up with one unmeasured load and analysis; each
	// measured round still loads and analyses the program afresh.
	v, err := r.load(w.prog.Source, -1, -1, -1)
	if err != nil {
		return err
	}
	_, err = r.analyze(v, nil, -1, -1, -1)
	return err
}

// family picks round n's backward goal: a seed-dependent walk over the
// families.
func family(seed int64, n, families int) int {
	return int((uint64(seed)*7919 + uint64(n)*104729) % uint64(families))
}

func (w *wideCold) round(r *runner, n int) {
	o := w.oracle
	src := w.prog.Source
	in := hash(src)
	var v *version
	var f *forward
	r.op(kAnalyze, "", n, func(op, root int) (outcome, error) {
		var err error
		if v, err = r.load(src, op, root, n); err != nil {
			return outcome{}, err
		}
		if f, err = r.analyze(v, nil, op, root, n); err != nil {
			return outcome{}, err
		}
		m := f.marshal
		return outcome{in: in, digest: hash(m), check: func() error { return o.checkForward(src, m) }}, nil
	})
	if f == nil {
		return
	}
	goal := fmt.Sprintf("p%d_main/0", family(r.cfg.seed, n, r.cfg.families))
	r.op(kBackward, "", n, func(op, root int) (outcome, error) {
		ds, err := r.backwardQuery(v, goal, nil, op, root, n)
		if err != nil {
			return outcome{}, err
		}
		return outcome{in: in + goal, digest: digestDemands(ds), check: func() error { return checkDemands(src, ds) }}, nil
	})
	r.op(kReanalyze, "", n, func(op, root int) (outcome, error) {
		f2, err := r.analyze(v, nil, op, root, n)
		if err != nil {
			return outcome{}, err
		}
		m := f2.marshal
		return outcome{in: in, digest: hash(m), check: func() error { return o.checkForward(src, m) }}, nil
	})
	if n%optimizeEvery != 0 {
		return
	}
	opt := optimizeAndRun(r, o, v, f, src, in, n)
	if opt != nil && r.tr != nil {
		r.gateCost(v, opt, -1)
	}
}

// optimizeAndRun is the optimize and run pair the wide workloads share:
// a gated Optimize of the analysed version, then its main/0 on the
// concrete machine, checked against the reference interpreter.
func optimizeAndRun(r *runner, o *oracle, v *version, f *forward, src, in string, n int) *optimized {
	var opt *optimized
	r.op(kOptimize, "", n, func(op, root int) (outcome, error) {
		var err error
		if opt, err = r.optimizeVersion(v, f, op, root, n); err != nil {
			return outcome{}, err
		}
		return outcome{in: in, digest: hash(opt.disasm())}, nil
	})
	if opt == nil {
		return nil
	}
	// A run takes a few milliseconds against a second for the rest of
	// the round, so each round runs it several times for a steady median.
	for i := 0; i < wideRuns; i++ {
		round := n
		if i > 0 {
			round = -1 // count machine steps once per round
		}
		r.op(kRun, "", n, func(op, root int) (outcome, error) {
			ok, err := r.runMain(opt, op, root, round)
			if err != nil {
				return outcome{}, err
			}
			return outcome{in: in, digest: boolDigest(ok), check: func() error { return o.checkMain(src, ok) }}, nil
		})
	}
	return opt
}

// wideRuns is how many runs of the optimized main/0 a wide round makes.
const wideRuns = 5

// optimizeEvery: the wide workloads optimize and run in every third
// round only (round 0 among them). An optimize takes longer than the
// analysis, so this leaves room for more analysis samples in a run.
const optimizeEvery = 3

func (w *wideCold) close() {}
