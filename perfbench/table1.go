package main

import (
	"fmt"

	"awam/internal/bench"
)

// table1 cycles the paper's Table 1 programs. Each program gets a
// forward analysis of a freshly loaded version, a second analysis of the
// same loaded version, a backward query from main/0, a gated Optimize
// and a run of the optimized main/0. One round is every program once,
// starting at a seed-chosen program.
type table1 struct {
	progs  []bench.Program
	oracle *oracle
}

func (w *table1) setup(r *runner) error {
	progs := bench.Programs
	if r.cfg.table1 > 0 && r.cfg.table1 < len(progs) {
		progs = progs[:r.cfg.table1]
	}
	start := int(uint64(r.cfg.seed) % uint64(len(progs)))
	w.progs = append(append([]bench.Program(nil), progs[start:]...), progs[:start]...)
	w.oracle = newOracle()
	// Warm the process up with one unmeasured pass of every operation
	// over every program, so the first measured round does not pay lazy
	// runtime set-up.
	for _, p := range w.progs {
		r.input("table1/"+p.Name, p.Source)
		if err := warmUp(r, p.Source, "main/0"); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
	}
	return nil
}

// warmUp runs each operation kind once on src without measuring it.
func warmUp(r *runner, src, goal string) error {
	v, err := r.load(src, -1, -1, -1)
	if err != nil {
		return err
	}
	f, err := r.analyze(v, nil, -1, -1, -1)
	if err != nil {
		return err
	}
	if _, err := r.analyze(v, nil, -1, -1, -1); err != nil {
		return err
	}
	if _, err := r.backwardQuery(v, goal, nil, -1, -1, -1); err != nil {
		return err
	}
	opt, err := r.optimizeVersion(v, f, -1, -1, -1)
	if err != nil {
		return err
	}
	_, err = r.runMain(opt, -1, -1, -1)
	return err
}

func (w *table1) round(r *runner, n int) {
	for _, p := range w.progs {
		w.program(r, p, n)
	}
}

func (w *table1) program(r *runner, p bench.Program, n int) {
	o := w.oracle
	in := hash(p.Source)
	var v *version
	var f *forward
	r.op(kAnalyze, p.Name, n, func(op, root int) (outcome, error) {
		var err error
		if v, err = r.load(p.Source, op, root, n); err != nil {
			return outcome{}, err
		}
		if f, err = r.analyze(v, nil, op, root, n); err != nil {
			return outcome{}, err
		}
		m := f.marshal
		return outcome{in: in, digest: hash(m), check: func() error { return o.checkForward(p.Source, m) }}, nil
	})
	if f == nil {
		return
	}
	r.op(kReanalyze, p.Name, n, func(op, root int) (outcome, error) {
		f2, err := r.analyze(v, nil, op, root, n)
		if err != nil {
			return outcome{}, err
		}
		m := f2.marshal
		return outcome{in: in, digest: hash(m), check: func() error { return o.checkForward(p.Source, m) }}, nil
	})
	r.op(kBackward, p.Name, n, func(op, root int) (outcome, error) {
		ds, err := r.backwardQuery(v, "main/0", nil, op, root, n)
		if err != nil {
			return outcome{}, err
		}
		return outcome{in: in, digest: digestDemands(ds), check: func() error { return checkDemands(p.Source, ds) }}, nil
	})
	var opt *optimized
	r.op(kOptimize, p.Name, n, func(op, root int) (outcome, error) {
		var err error
		if opt, err = r.optimizeVersion(v, f, op, root, n); err != nil {
			return outcome{}, err
		}
		o2 := opt
		return outcome{in: in, digest: hash(o2.disasm()), check: func() error {
			if p.Query == "" {
				return nil
			}
			got, ok, err := o2.query(p.Query)
			if err != nil {
				return err
			}
			return checkBinding(p, got, ok)
		}}, nil
	})
	if opt == nil {
		return
	}
	if r.tr != nil {
		r.gateCost(v, opt, -1)
	}
	r.op(kRun, p.Name, n, func(op, root int) (outcome, error) {
		ok, err := r.runMain(opt, op, root, n)
		if err != nil {
			return outcome{}, err
		}
		return outcome{in: in, digest: boolDigest(ok), check: func() error { return o.checkMain(p.Source, ok) }}, nil
	})
}

func (w *table1) close() {}
