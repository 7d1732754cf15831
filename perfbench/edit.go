package main

import (
	"fmt"

	"awam/internal/bench"
)

// editSession is an editing session on one seeded wide program behind
// an in-memory summary store primed during set-up. Each round makes a
// distinct one-clause edit and analyses it (new records for the dirty
// cone, every other record read), re-analyses the version the previous
// round made (reads only), queries the edited family backward against
// the same store and repeats that query; every third round also
// optimizes the edited version and runs it.
type editSession struct {
	base   bench.Program
	store  *store
	prev   string
	oracle *oracle
}

func (w *editSession) setup(r *runner) error {
	w.base = bench.WideProgramSeeded(r.cfg.families, r.cfg.seed)
	w.oracle = newOracle()
	w.prev = w.base.Source
	r.input("edit_session/"+w.base.Name, w.base.Source)
	st, err := r.newStore()
	if err != nil {
		return err
	}
	w.store = st
	v, err := r.load(w.base.Source, -1, -1, -1)
	if err != nil {
		return err
	}
	_, err = r.analyze(v, w.store, -1, -1, -1)
	return err
}

// edit returns round n's edited source: the base program plus one
// clause for a seed-chosen family's leaf predicate, with an atom no
// other round uses.
func (w *editSession) edit(r *runner, n int) (src string, fam int) {
	fam = family(r.cfg.seed+1, n, r.cfg.families)
	src = w.base.Source + fmt.Sprintf("\np%d_use(edit_%d).\n", fam, n)
	r.input(fmt.Sprintf("edit_session/edit-%05d", n), src)
	return src, fam
}

func (w *editSession) round(r *runner, n int) {
	o := w.oracle
	src, fam := w.edit(r, n)
	in := hash(src)
	pred := fmt.Sprintf("p%d_use/1", fam)
	var v *version
	var f *forward
	r.op(kAnalyze, "", n, func(op, root int) (outcome, error) {
		var err error
		if v, err = r.load(src, op, root, n); err != nil {
			return outcome{}, err
		}
		if f, err = r.analyze(v, w.store, op, root, n); err != nil {
			return outcome{}, err
		}
		m, sccs, exec := f.marshal, f.sccs, f.executed
		return outcome{in: in, digest: hash(fmt.Sprint(m, sccs, exec)), check: func() error {
			if err := o.checkStoreless(src, m); err != nil {
				return err
			}
			return checkCone(src, pred, sccs, exec)
		}}, nil
	})
	prev := w.prev
	r.op(kReanalyze, "", n, func(op, root int) (outcome, error) {
		pv, err := r.load(prev, op, root, n)
		if err != nil {
			return outcome{}, err
		}
		pf, err := r.analyze(pv, w.store, op, root, n)
		if err != nil {
			return outcome{}, err
		}
		m, sccs, exec := pf.marshal, pf.sccs, pf.executed
		return outcome{in: hash(prev), digest: hash(fmt.Sprint(m, sccs, exec)), check: func() error {
			if err := o.checkStoreless(prev, m); err != nil {
				return err
			}
			return checkRepeat(sccs, exec)
		}}, nil
	})
	if f == nil {
		return
	}
	w.prev = src
	goal := fmt.Sprintf("p%d_main/0", fam)
	r.op(kBackward, "", n, func(op, root int) (outcome, error) {
		ds, err := r.backwardQuery(v, goal, w.store, op, root, n)
		if err != nil {
			return outcome{}, err
		}
		return outcome{in: in + goal, digest: digestDemands(ds), check: func() error { return checkDemands(src, ds) }}, nil
	})
	// The same query again: every component it visits is now served
	// from the store (a warm backward repeat).
	r.op(kBackwardWarm, "", n, func(op, root int) (outcome, error) {
		ds, err := r.backwardQuery(v, goal, w.store, op, root, -1)
		if err != nil {
			return outcome{}, err
		}
		return outcome{in: in + goal, digest: digestDemands(ds), check: func() error { return checkDemands(src, ds) }}, nil
	})
	if n%optimizeEvery != 0 {
		return
	}
	opt := optimizeAndRun(r, o, v, f, src, in, n)
	if opt != nil && r.tr != nil {
		r.gateCost(v, opt, -1)
	}
}

func (w *editSession) close() {}
