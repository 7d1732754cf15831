package main

import (
	"bytes"
	"regexp"
	"testing"
)

var round0 = regexp.MustCompile(`outputs round0_sha256=([0-9a-f]+)`)

// smoke runs a workload at a small size for a fraction of a second. The
// wide programs have 32 families, the daemon workload's own size: on
// smaller ones a one-clause edit can change the whole program's
// specialization salt, so every component misses the store and the
// edit_session cone check fails (a fault of the incremental engine's
// fingerprints, noted in CHANGES.md).
func smoke(t *testing.T, workload string, trace bool) (*result, string) {
	t.Helper()
	cfg := config{
		workload: workload, seed: 5, seconds: 0.2, trace: trace, traceDir: t.TempDir(),
		families: 32, table1: 4,
	}
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%t attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	m := round0.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no outputs line:\n%s", out.String())
	}
	return res, m[1]
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range []string{"table1", "wide_cold", "edit_session", "daemon"} {
		t.Run(w, func(t *testing.T) {
			res, plain := smoke(t, w, false)
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.name]
				if !ok || v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("metric %s = %+v", m.name, v)
				}
			}
			tres, traced := smoke(t, w, true)
			if traced != plain {
				t.Errorf("traced outputs %s differ from untraced %s", traced, plain)
			}
			for _, m := range layerMetrics {
				if _, ok := tres.Metrics[m.name]; !ok {
					t.Errorf("traced run lacks %s", m.name)
				}
			}
		})
	}
}
