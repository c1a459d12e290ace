// Command daggerbench regenerates the tables and figures of the Dagger
// paper's evaluation (§5). Each experiment id corresponds to one table or
// figure; `daggerbench -list` enumerates them and `daggerbench -run all`
// reproduces the full evaluation.
//
// Usage:
//
//	daggerbench -run fig10          # one experiment
//	daggerbench -run all            # everything
//	daggerbench -run fig12 -quick   # 10x fewer requests, for smoke tests
//	daggerbench -run overload -metrics report.json   # archive telemetry
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dagger/internal/experiments"
)

func main() {
	run := flag.String("run", "", "experiment id to run (or 'all')")
	list := flag.Bool("list", false, "list experiment ids")
	quick := flag.Bool("quick", false, "run with reduced request counts")
	metricsPath := flag.String("metrics", "", "write the unified per-experiment metrics report (JSON) to this path")
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Println("  ", id)
		}
		if *run == "" {
			os.Exit(2)
		}
		return
	}

	ids := []string{*run}
	if *run == "all" {
		ids = experiments.IDs()
	}
	if err := runExperiments(os.Stdout, ids, *quick); err != nil {
		fmt.Fprintf(os.Stderr, "daggerbench: %v\n", err)
		os.Exit(1)
	}

	if *metricsPath != "" {
		if err := writeMetricsReport(*metricsPath); err != nil {
			fmt.Fprintf(os.Stderr, "daggerbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics report: %d experiment(s) -> %s\n",
			experiments.Report().Len(), *metricsPath)
	}
}

// runExperiments runs each experiment in ids through the registry, framing
// its rows with a header and a timed footer.
func runExperiments(w io.Writer, ids []string, quick bool) error {
	reg := experiments.Registry()
	for _, id := range ids {
		r, ok := reg[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		start := time.Now()
		fmt.Fprintf(w, "==== %s ====\n", id)
		if err := r(w, quick); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintf(w, "---- %s done in %v ----\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// writeMetricsReport dumps the unified per-experiment telemetry collected by
// the runners (experiments.PublishMetrics) as the JSON report CI archives.
func writeMetricsReport(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.Report().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
