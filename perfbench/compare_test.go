package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestPairsWonPairsBySlotOnly(t *testing.T) {
	run := func(seed int64, slot int, v float64) runFile {
		return runFile{workload: "daemon", seed: seed, slot: slot,
			res: result{Metrics: map[string]metricValue{"analyze_ms": {Value: v}}}}
	}
	base := []runFile{run(1, 0, 10), run(2, 1, 10), run(3, -1, 10)}
	head := []runFile{run(1, 0, 9), run(2, 1, 11), run(3, -1, 1)}
	won, pairs := pairsWon(base, head, "analyze_ms", false)
	if won != 1 || pairs != 2 {
		t.Fatalf("won %d of %d pairs, want 1 of 2 (the unslotted seed-3 runs are not paired)", won, pairs)
	}
}

func TestReadRunTakesSlotAndResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "daemon-seed2-trace0.out")
	text := "slot 7 first=head\nmanifest workload=daemon seed=2 trace=false rounds=3\n" +
		`{"correct":true,"attempted":4,"failed":0,"metrics":{"analyze_ms":{"value":1.5,"unit":"ms"}}}` + "\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	rf, err := readRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if rf.slot != 7 || rf.seed != 2 || rf.workload != "daemon" || rf.res.Attempted != 4 {
		t.Fatalf("read %+v", rf)
	}
}
