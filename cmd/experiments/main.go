// Command experiments regenerates every table and figure of the
// paper's evaluation (Section 7) over the synthetic datasets:
//
//	experiments -exp all -scale small
//	experiments -exp fig7 -scale medium -seed 7
//
// Experiments: table2, table3, fig6, fig7, fig8, fig8c, fig9, fig10,
// or all. Scales: small (2k observations), medium (20–50k), large
// (100–500k). See EXPERIMENTS.md for the expected shapes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"re2xolap/internal/bench"
	"re2xolap/internal/endpoint"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table2, table3, fig6, fig7, fig8, fig8c, fig9, fig10")
	scaleName := flag.String("scale", "small", "dataset scale: small, medium, large")
	seed := flag.Int64("seed", 7, "workload random seed")
	perSize := flag.Int("persize", 3, "examples per input size for fig8/fig9")
	csvDir := flag.String("csv", "", "also write per-figure CSV data files to this directory")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query deadline for the harness (0 disables the resilience wrapper)")
	retries := flag.Int("retries", 2, "retries per query when -query-timeout enables the resilience wrapper")
	workers := flag.Int("workers", 0, "worker goroutines for query execution and synthesis (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	var policy *endpoint.Policy
	if *queryTimeout > 0 {
		p := endpoint.DefaultPolicy()
		p.Timeout = *queryTimeout
		p.MaxRetries = *retries
		policy = &p
	}
	if err := run(os.Stdout, *exp, *scaleName, *seed, *perSize, *csvDir, policy, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp, scaleName string, seed int64, perSize int, csvDir string, policy *endpoint.Policy, workers int) error {
	var scale bench.Scale
	switch scaleName {
	case "small":
		scale = bench.ScaleSmall
	case "medium":
		scale = bench.ScaleMedium
	case "large":
		scale = bench.ScaleLarge
	default:
		return fmt.Errorf("unknown scale %q", scaleName)
	}
	want := map[string]bool{}
	for _, e := range strings.Split(exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	fmt.Fprintf(w, "preparing datasets at scale %q (eurostat=%d production=%d dbpedia=%d observations)...\n",
		scaleName, scale.Eurostat, scale.Production, scale.DBpedia)
	var datasets []*bench.Dataset
	for _, spec := range scale.Specs() {
		d, err := bench.PrepareWithPolicy(spec, policy)
		if err != nil {
			return err
		}
		// One knob drives both layers: the in-process SPARQL executor
		// and the synthesis engine's validation pool.
		d.Client.Engine.Exec.Workers = workers
		d.Engine.Workers = workers
		fmt.Fprintf(w, "  %s: %d triples, bootstrap %s\n", spec.Name, d.Store.Len(), d.BootstrapTime.Round(1000000))
		datasets = append(datasets, d)
	}
	fmt.Fprintln(w)

	eurostat := datasets[0]
	section := func(name string, f func() error) error {
		if !all && !want[name] {
			return nil
		}
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(w)
		return nil
	}
	if err := section("table2", func() error { return bench.RunTable2(w, eurostat) }); err != nil {
		return err
	}
	if err := section("table3", func() error { return bench.RunTable3(w, datasets) }); err != nil {
		return err
	}
	if csvDir != "" && (all || want["table3"]) {
		if err := bench.ExportTable3CSV(csvDir, datasets); err != nil {
			return err
		}
	}
	if err := section("fig6", func() error { return bench.RunFig6(w, datasets) }); err != nil {
		return err
	}
	if csvDir != "" && (all || want["fig6"]) {
		if err := bench.ExportFig6CSV(csvDir, datasets); err != nil {
			return err
		}
	}
	if err := section("fig7", func() error { return bench.RunFig7(w, datasets, seed) }); err != nil {
		return err
	}
	if csvDir != "" && (all || want["fig7"]) {
		rows, err := bench.CollectFig7(datasets, seed)
		if err != nil {
			return err
		}
		if err := bench.ExportFig7CSV(csvDir, rows); err != nil {
			return err
		}
	}
	if all || want["fig8"] || want["fig9"] {
		metrics, err := bench.CollectWorkflow(datasets, seed, perSize)
		if err != nil {
			return fmt.Errorf("fig8/fig9: %w", err)
		}
		if all || want["fig8"] {
			bench.RunFig8(w, metrics)
			fmt.Fprintln(w)
		}
		if all || want["fig9"] {
			bench.RunFig9(w, metrics)
			fmt.Fprintln(w)
		}
		if csvDir != "" {
			if err := bench.ExportFig89CSV(csvDir, metrics); err != nil {
				return err
			}
		}
	}
	if err := section("fig8c", func() error { return bench.RunFig8c(w, eurostat, seed) }); err != nil {
		return err
	}
	if err := section("fig10", func() error { return bench.RunFig10(w, eurostat) }); err != nil {
		return err
	}
	// The step tables attribute the whole run's endpoint-query cost to
	// the workflow steps that issued it (keyword-search, membership-*,
	// witness, refine:*, ...), one table per dataset.
	bench.WriteStepTables(w, datasets)
	return nil
}
