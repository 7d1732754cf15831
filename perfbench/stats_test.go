package main

import "testing"

func TestP90IgnoresBurstInOneStretch(t *testing.T) {
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = 100 + float64(i%10)
	}
	// A burst slows a run of consecutive samples in the second stretch.
	for i := 12; i < 22; i++ {
		xs[i] = 400
	}
	if got := p90(xs); got > 110 {
		t.Fatalf("p90 = %.1f, want the quiet stretches' tail (<= 110)", got)
	}
	if got := p90(xs[:9]); got != percentile(xs[:9], 90) {
		t.Fatalf("few samples: p90 = %.1f, want the plain percentile %.1f", got, percentile(xs[:9], 90))
	}
}
