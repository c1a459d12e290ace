// Command daggerperf is the repository's performance ledger: one run builds a
// workload from a seed, warms it, measures it for a fixed time, checks every
// reply, and prints every declared metric by name with its unit. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
// The driver's form, from the root of a checkout:
//
//	bash bench/run.sh --workload echo_sync --seed 1 --seconds 12 --trace 0
//
// Other modes of the built binary:
//
//	daggerperf -spec                         print BENCHMARK.json
//	daggerperf -suite -runs 5 -out a.json    run every workload -runs times, untraced and traced, into a ledger
//	daggerperf -compare a.json b.json        judge ledger b against ledger a
//	daggerperf -report a.json                print the "where the microseconds go" tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see -spec)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds of the run")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		out      = flag.String("out", "", "with -suite: the ledger to write; otherwise: also write the result line here, and a traced run's spans to <out>.trace.json")
		child    = flag.Bool("child", false, "internal: be one measuring process of an untraced run")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		suite    = flag.Bool("suite", false, "run every workload, untraced and traced, -runs times each")
		runs     = flag.Int("runs", 5, "with -suite: runs per workload (run i uses seed+i)")
		compare  = flag.Bool("compare", false, "compare two ledgers given as arguments; exit 1 on a regression")
		report   = flag.String("report", "", "print markdown tables from this ledger")
	)
	flag.Parse()
	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: daggerperf -compare a.json b.json")
		}
		worse, err := compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
	case *report != "":
		if err := writeReport(os.Stdout, *report); err != nil {
			fatal(2, "%v", err)
		}
	case *suite:
		if *out == "" {
			fatal(2, "-suite needs -out")
		}
		if err := runSuite(*out, *seed, *seconds, *runs); err != nil {
			fatal(1, "%v", err)
		}
	default:
		w := findWorkload(*workload)
		if w == nil {
			fatal(2, "unknown workload %q (see -spec)", *workload)
		}
		if *seconds <= 0 {
			fatal(2, "-seconds must be positive")
		}
		cfg := runConfig{workload: w, seed: *seed, seconds: *seconds, traced: *trace != 0}
		if cfg.traced && *out != "" {
			cfg.traceOut = *out + ".trace.json"
		}
		// Watchdog: every call is already under callTimeout, so a run that
		// overstays this much is stuck, and must not hang its driver.
		limit := time.Duration(*seconds*float64(time.Second))*2 + 90*time.Second
		time.AfterFunc(limit, func() { fatal(3, "watchdog: %s still running after %v", w.name, limit) })
		var res *result
		var err error
		if cfg.traced || *child {
			res, err = run(cfg)
		} else {
			res, err = runSpread(w, *seed, *seconds)
		}
		if err != nil {
			fatal(1, "%s: %v", w.name, err)
		}
		printResult(res)
		if !*child {
			// Notes travel from a measuring process to its parent on the
			// result line; the run's own line has exactly the driver's keys.
			res.Notes = nil
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(1, "%v", err)
		}
		if *out != "" {
			if err := os.WriteFile(*out, append(line, '\n'), 0o644); err != nil {
				fatal(1, "%v", err)
			}
		}
		fmt.Printf("%s\n", line)
	}
}

// printResult lists every metric by name with its unit, ahead of the JSON
// line the driver parses, and on standard error (which every parent process
// forwards) why an incorrect run is incorrect.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, note := range res.Notes {
		fmt.Fprintf(os.Stderr, "INCORRECT: %s\n", note)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "daggerperf: "+format+"\n", args...)
	os.Exit(code)
}
