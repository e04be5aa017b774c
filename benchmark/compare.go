package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareMain implements `benchmark compare A.jsonl B.jsonl`: A is the
// parent's runs, B the change's, both as written to runs.jsonl. It
// applies the paired-run rule: runs pair up in file order per
// workload, each side is summarised by its median and quartiles, a
// gain needs nine tenths of the pairs and a median difference larger
// than the parent's own spread, a regression is a median worse than
// the parent's by more than the metric's bound, and a metric whose
// spread exceeds its bound is "unresolved", not "unchanged".
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	a, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	b, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	rows, err := compareRuns(a, b)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: not comparable: %v\n", err)
		return 3
	}
	fmt.Fprintf(stdout, "%-13s %-13s %-5s %5s  %-34s %-34s %8s %7s %6s  %s\n",
		"workload", "metric", "unit", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "chg/par", "wins", "bound", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-13s %-13s %-5s %5d  %-34s %-34s %8.4f %3d/%-3d %5.0f%%  %s\n",
			r.Workload, r.Metric, r.Unit, r.Pairs,
			fmt.Sprintf("%.5g [%.5g, %.5g]", r.A[1], r.A[0], r.A[2]),
			fmt.Sprintf("%.5g [%.5g, %.5g]", r.B[1], r.B[0], r.B[2]),
			r.Ratio, r.Wins, r.Decided, r.Bound*100, r.Verdict)
		if r.Verdict == verdictRegression {
			code = 1
		}
	}
	return code
}

func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

const (
	verdictGain       = "gain"
	verdictRegression = "REGRESSION"
	verdictUnchanged  = "no regression"
	verdictUnresolved = "unresolved"
	verdictFailures   = "FAILED OPERATIONS"
)

// compareRow is one workload × metric line. A and B hold q1, median,
// q3. Ratio is change median over parent median — the base is the
// parent.
type compareRow struct {
	Workload, Metric, Unit string
	Pairs                  int
	A, B                   [3]float64
	Ratio                  float64
	Wins, Decided          int // pairs the change won, of pairs that were not ties
	Bound                  float64
	Verdict                string
}

// compareRuns pairs the untraced runs of a and b per workload and
// judges every end-to-end metric. It refuses when a pair was not
// measured on the same inputs.
func compareRuns(a, b []runRecord) ([]compareRow, error) {
	var rows []compareRow
	for _, wl := range workloadNames {
		ra, rb := untracedOf(a, wl), untracedOf(b, wl)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) != len(rb) {
			return nil, fmt.Errorf("%s: %d parent runs but %d change runs", wl, len(ra), len(rb))
		}
		failed := false
		for i := range ra {
			if ra[i].InputHash != rb[i].InputHash || ra[i].Seed != rb[i].Seed {
				return nil, fmt.Errorf("%s pair %d: parent ran seed %d input_hash %s, change ran seed %d input_hash %s — the two sides measured different scripts",
					wl, i+1, ra[i].Seed, ra[i].InputHash, rb[i].Seed, rb[i].InputHash)
			}
			if ra[i].Seconds != rb[i].Seconds || ra[i].Quick != rb[i].Quick {
				return nil, fmt.Errorf("%s pair %d: run length or scale differs", wl, i+1)
			}
			failed = failed || rb[i].Failed > ra[i].Failed
		}
		for _, d := range endToEndMetrics {
			row := judge(d, valuesOf(ra, d.Name), valuesOf(rb, d.Name))
			row.Workload = wl
			if failed {
				row.Verdict = verdictFailures
			}
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no untraced runs in either file")
	}
	return rows, nil
}

func untracedOf(rs []runRecord, workload string) []runRecord {
	var out []runRecord
	for _, r := range rs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(rs []runRecord, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// judge applies the rule to one metric's paired values.
func judge(d metricDef, a, b []float64) compareRow {
	row := compareRow{Metric: d.Name, Unit: d.Unit, Pairs: len(a), Bound: d.Bound}
	row.A[0], row.A[1], row.A[2] = quartiles(a)
	row.B[0], row.B[1], row.B[2] = quartiles(b)
	row.Ratio = ratio(row.B[1], row.A[1])
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		row.Decided++
		if better(b[i], a[i]) {
			row.Wins++
		}
	}
	spreadA := ratio(row.A[2]-row.A[0], row.A[1])
	spreadB := ratio(row.B[2]-row.B[0], row.B[1])
	// How much worse the change's median is, as a share of the parent's.
	worse := ratio(row.B[1]-row.A[1], row.A[1])
	if d.Better == "higher" {
		worse = -worse
	}
	diff := row.B[1] - row.A[1]
	if diff < 0 {
		diff = -diff
	}
	iqrA, iqrB := row.A[2]-row.A[0], row.B[2]-row.B[0]
	switch {
	case worse > d.Bound && diff > iqrA && diff > iqrB:
		row.Verdict = verdictRegression
	case spreadA > d.Bound || spreadB > d.Bound:
		// Too noisy to call either way: not a pass.
		row.Verdict = verdictUnresolved
	case worse > d.Bound:
		row.Verdict = verdictRegression
	case len(a) >= 10 && row.Decided > 0 && float64(row.Wins) >= 0.9*float64(row.Decided) && diff > iqrA:
		row.Verdict = verdictGain
	default:
		row.Verdict = verdictUnchanged
	}
	return row
}
