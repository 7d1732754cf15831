package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runFile is one saved run: its standard output, reduced to what
// compare needs.
type runFile struct {
	workload string
	seed     int64
	trace    bool
	// slot is the interleaved slot a paired sweep ran the run in (the
	// base and head runs of one slot ran back to back); -1 when the run
	// was not part of a paired sweep.
	slot int
	res  result
}

// readRuns reads every file in dir as the saved standard output of one
// run.
func readRuns(dir string) ([]runFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	var out []runFile
	for _, p := range paths {
		if st, err := os.Stat(p); err != nil || st.IsDir() {
			continue
		}
		rf, err := readRun(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no runs in %s", dir)
	}
	return out, nil
}

func readRun(path string) (runFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return runFile{}, err
	}
	defer f.Close()
	rf := runFile{slot: -1}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "slot ") {
			if _, err := fmt.Sscanf(line, "slot %d", &rf.slot); err != nil {
				return rf, fmt.Errorf("bad slot line %q: %w", line, err)
			}
		}
		if strings.HasPrefix(line, "manifest workload=") {
			var tr string
			if _, err := fmt.Sscanf(line, "manifest workload=%s seed=%d trace=%s", &rf.workload, &rf.seed, &tr); err != nil {
				return rf, fmt.Errorf("bad manifest line %q: %w", line, err)
			}
			rf.trace = tr == "true"
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return rf, err
	}
	if rf.workload == "" {
		return rf, errors.New("no manifest line")
	}
	if err := json.Unmarshal([]byte(last), &rf.res); err != nil {
		return rf, fmt.Errorf("last line is not a result: %w", err)
	}
	return rf, nil
}

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactCounts are the per-layer counts that repeat exactly for a given
// seed, so two versions of the program are compared on them exactly.
var exactCounts = []string{"core.steps", "compiler.code_size", "inc.executed_sccs", "machine.steps"}

// compareMain compares two sets of runs: the parent's (base) and the
// change's (head).
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "the benchmark definition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare [--bench BENCHMARK.json] BASE_DIR HEAD_DIR")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	base, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := readRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	return compareRuns(spec, base, head, w)
}

func compareRuns(spec benchSpec, base, head []runFile, w io.Writer) error {
	workloads := map[string]bool{}
	for _, rf := range append(append([]runFile(nil), base...), head...) {
		workloads[rf.workload] = true
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-13s %-15s %21s %21s %6s %8s %8s %s\n",
		"workload", "metric", "base median [q1,q3]", "head median [q1,q3]", "won", "delta", "base_iqr", "verdict")
	for _, wl := range names {
		b, h := pick(base, wl, false), pick(head, wl, false)
		failed := func(rs []runFile) string {
			a, f := 0, 0
			for _, r := range rs {
				a += r.res.Attempted
				f += r.res.Failed
			}
			return fmt.Sprintf("%d/%d", f, a)
		}
		if len(b) > 0 || len(h) > 0 {
			fmt.Fprintf(w, "%-13s failed ops: base %s, head %s\n", wl, failed(b), failed(h))
		}
		for _, m := range spec.EndToEnd {
			bv, hv := values(b, m.Name), values(h, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			bm, hm := median(bv), median(hv)
			bq1, bq3 := quartiles(bv)
			hq1, hq3 := quartiles(hv)
			won, pairs := pairsWon(b, h, m.Name, m.Better == "higher")
			delta := (hm - bm) / bm
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			iqr := (bq3 - bq1) / bm
			verdict := "within noise"
			switch {
			case worse > m.Bound:
				verdict = fmt.Sprintf("REGRESSION beyond bound %.2f", m.Bound)
			case -worse > iqr && pairs > 0 && float64(won) >= 0.9*float64(pairs):
				verdict = "gain"
			case worse > iqr:
				verdict = "worse, within bound"
			}
			wonCol := "     -"
			if pairs > 0 {
				wonCol = fmt.Sprintf("%2d/%-3d", won, pairs)
			}
			fmt.Fprintf(w, "%-13s %-15s %9.4g [%.4g,%.4g] %9.4g [%.4g,%.4g] %s %+7.1f%% %7.1f%% %s\n",
				wl, m.Name, bm, bq1, bq3, hm, hq1, hq3, wonCol, 100*delta, 100*iqr, verdict)
		}
		bt, ht := pick(base, wl, true), pick(head, wl, true)
		for _, name := range exactCounts {
			for _, hr := range ht {
				for _, br := range bt {
					if br.seed != hr.seed {
						continue
					}
					bc, hc := br.res.Metrics[name].Value, hr.res.Metrics[name].Value
					if bc != hc {
						fmt.Fprintf(w, "%-13s %-15s seed %d: base %.0f, head %.0f (exact count changed)\n", wl, name, hr.seed, bc, hc)
					}
				}
			}
		}
	}
	return nil
}

func pick(rs []runFile, workload string, trace bool) []runFile {
	var out []runFile
	for _, r := range rs {
		if r.workload == workload && r.trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []runFile, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.res.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// pairsWon pairs base and head runs by the slot of a paired sweep
// (sweep.sh --pair), which ran the two back to back, and counts the
// pairs the head wins; ties count for neither side. Runs from separate
// sweeps carry no slot and are not paired: minutes or hours apart, host
// drift would decide who wins.
func pairsWon(base, head []runFile, metric string, higher bool) (won, pairs int) {
	bySlot := map[int]float64{}
	for _, r := range base {
		if r.slot >= 0 {
			bySlot[r.slot] = r.res.Metrics[metric].Value
		}
	}
	for _, r := range head {
		bv, ok := bySlot[r.slot]
		if r.slot < 0 || !ok {
			continue
		}
		pairs++
		hv := r.res.Metrics[metric].Value
		if (higher && hv > bv) || (!higher && hv < bv) {
			won++
		}
	}
	return won, pairs
}
