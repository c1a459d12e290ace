package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// A ledger is what -suite writes: every workload's metrics over several runs
// (one seed each, untraced then traced), with the machine it was taken on.
// BENCH_<pr>.json files under baseline/ are ledgers.
type ledger struct {
	Schema    int              `json:"schema"`
	Env       envInfo          `json:"env"`
	Seed      int64            `json:"seed"` // run i used seed+i
	Seconds   float64          `json:"seconds"`
	Runs      int              `json:"runs"`
	Workloads []ledgerWorkload `json:"workloads"`
}

type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPUModel   string `json:"cpu_model"`
}

type ledgerWorkload struct {
	Name string `json:"name"`
	// Attempted and Failed are per untraced run: the sample counts behind
	// that run's percentiles, and the operations that failed.
	Attempted []uint64          `json:"attempted"`
	Failed    []uint64          `json:"failed"`
	Incorrect int               `json:"incorrect_runs"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func (s series) median() float64 { return median(s.Values) }

func readEnv() envInfo {
	env := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// runSuite runs every workload, run by run, untraced and then traced, each in
// a fresh process of this binary (exactly what the driver does), and writes
// the ledger.
func runSuite(out string, seed int64, seconds float64, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	lg := ledger{Schema: 1, Env: readEnv(), Seed: seed, Seconds: seconds, Runs: runs}
	for _, w := range workloadDefs {
		lg.Workloads = append(lg.Workloads, ledgerWorkload{
			Name: w.name, EndToEnd: map[string]series{}, PerLayer: map[string]series{},
		})
	}
	one := func(lw *ledgerWorkload, run int, traced bool) error {
		args := []string{"-workload", lw.Name, "-seed", strconv.FormatInt(seed+int64(run), 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
		into := lw.EndToEnd
		if traced {
			args[len(args)-1] = "1"
			into = lw.PerLayer
		}
		fmt.Fprintf(os.Stderr, "run %d %s traced=%v\n", run, lw.Name, traced)
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s run %d: %w", lw.Name, run, err)
		}
		res, err := lastLine(stdout)
		if err != nil {
			return fmt.Errorf("%s run %d: %w", lw.Name, run, err)
		}
		if !res.Correct {
			lw.Incorrect++
		}
		if !traced {
			lw.Attempted = append(lw.Attempted, res.Attempted)
			lw.Failed = append(lw.Failed, res.Failed)
		}
		for name, m := range res.Metrics {
			s := into[name]
			s.Unit = m.Unit
			s.Values = append(s.Values, m.Value)
			into[name] = s
		}
		return nil
	}
	for run := 0; run < runs; run++ {
		for i := range lg.Workloads {
			for _, traced := range []bool{false, true} {
				if err := one(&lg.Workloads[i], run, traced); err != nil {
					return err
				}
			}
		}
	}
	data, err := json.MarshalIndent(lg, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lg ledger
	if err := json.Unmarshal(data, &lg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &lg, nil
}

func (lg *ledger) workload(name string) *ledgerWorkload {
	for i := range lg.Workloads {
		if lg.Workloads[i].Name == name {
			return &lg.Workloads[i]
		}
	}
	return nil
}

// Verdicts of one (workload, end-to-end metric) pairing.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's direction and bound to two sets of runs: b is
// worse when its median is worse than a's by more than the bound; when the
// run-to-run spread of either side (interquartile distance over median) is
// wider than the bound, a difference inside the bound cannot be told from
// noise and the pairing is unresolved; b is better when it improved by more
// than that spread.
func judge(m metricSpec, a, b []float64) string {
	ma, mb := median(a), median(b)
	if len(a) == 0 || len(b) == 0 || ma == 0 {
		return verdictUnresolved
	}
	worseBy := (mb - ma) / math.Abs(ma)
	if m.Better == higher {
		worseBy = -worseBy
	}
	noise := math.Max(spread(a), spread(b))
	switch {
	case worseBy > m.Bound:
		return verdictWorse
	case noise > m.Bound:
		return verdictUnresolved
	case worseBy < 0 && -worseBy > noise:
		return verdictBetter
	default:
		return verdictWithin
	}
}

func sum(vs []uint64) (t uint64) {
	for _, v := range vs {
		t += v
	}
	return t
}

// allocsBound is by how many allocations per RPC (absolute: the echo
// workloads sit at 0, where a share means nothing) core.allocs_per_rpc may
// rise before b counts as regressed.
const allocsBound = 0.05

// compareLedgers prints one row per (workload, end-to-end metric) and
// reports whether b regressed: any "worse" row, a higher failed share, or
// more allocations per RPC.
func compareLedgers(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-15s %-16s %12s %12s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	for _, def := range workloadDefs {
		wa, wb := a.workload(def.name), b.workload(def.name)
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-15s missing from a ledger: %s\n", def.name, verdictUnresolved)
			continue
		}
		for _, m := range endToEndSpecs {
			va, vb := wa.EndToEnd[m.Name].Values, wb.EndToEnd[m.Name].Values
			v := judge(m, va, vb)
			if v == verdictWorse {
				regressed = true
			}
			fmt.Fprintf(w, "%-15s %-16s %12.5g %12.5g %+7.1f%% %7.0f%%  %s\n",
				def.name, m.Name, median(va), median(vb), 100*signedChange(va, vb), 100*m.Bound, v)
		}
		fa, fb := frac(sum(wa.Failed), sum(wa.Attempted)), frac(sum(wb.Failed), sum(wb.Attempted))
		v := verdictWithin
		if fb > fa || wb.Incorrect > wa.Incorrect {
			v, regressed = verdictWorse, true
		}
		fmt.Fprintf(w, "%-15s %-16s %12.5g %12.5g %17s  %s (incorrect runs %d -> %d)\n",
			def.name, "failed_frac", fa, fb, "", v, wa.Incorrect, wb.Incorrect)

		const allocs = "core.allocs_per_rpc"
		xa, xb := wa.PerLayer[allocs].Values, wb.PerLayer[allocs].Values
		v = verdictWithin
		switch {
		case len(xa) == 0 || len(xb) == 0:
			v = verdictUnresolved // a ledger without traced runs
		case median(xb)-median(xa) > allocsBound:
			v, regressed = verdictWorse, true
		case median(xa)-median(xb) > allocsBound:
			v = verdictBetter
		}
		fmt.Fprintf(w, "%-15s %-16s %12.5g %12.5g %8s %+7.2f  %s\n",
			def.name, "allocs_per_rpc", median(xa), median(xb), "", allocsBound, v)
	}
	fmt.Fprintf(w, "\nper-layer medians (no bound; for locating a change)\n")
	for _, def := range workloadDefs {
		wa, wb := a.workload(def.name), b.workload(def.name)
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range perLayerSpecs {
			x, y := wa.PerLayer[m.Name].median(), wb.PerLayer[m.Name].median()
			if x == 0 && y == 0 {
				continue
			}
			fmt.Fprintf(w, "%-15s %-30s %12.5g %12.5g %s\n", def.name, m.Name, x, y, m.Unit)
		}
	}
	return regressed, nil
}

func signedChange(a, b []float64) float64 {
	if ma := median(a); ma != 0 {
		return (median(b) - ma) / math.Abs(ma)
	}
	return 0
}

// writeReport prints, per functional workload, where one round trip's
// microseconds go: the blocking path's stage costs, the handler, and the
// hand-off wait that is left.
func writeReport(w io.Writer, path string) error {
	lg, err := readLedger(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Taken on %s, %d vCPU, %s, %s; seeds %d..%d, %g s per run.\n\n",
		lg.Env.CPUModel, lg.Env.NProc, lg.Env.GoVersion, lg.Env.OSArch, lg.Seed, lg.Seed+int64(lg.Runs)-1, lg.Seconds)
	fmt.Fprintf(w, "| workload | rtt p50 / p90 (us) | krps | CPU us/RPC | allocs/RPC | samples/run |\n|---|---|---|---|---|---|\n")
	for _, lw := range lg.Workloads {
		e := func(n string) float64 { return lw.EndToEnd[n].median() }
		var samples []float64
		for _, a := range lw.Attempted {
			samples = append(samples, float64(a))
		}
		fmt.Fprintf(w, "| `%s` | %.3g / %.3g | %.4g | %.3g | %.2f | %.0f |\n", lw.Name,
			e("rtt_p50_us"), e("rtt_p90_us"), e("throughput_krps"), e("cpu_us_per_rpc"),
			lw.PerLayer["core.allocs_per_rpc"].median(), median(samples))
	}
	for _, lw := range lg.Workloads {
		def := findWorkload(lw.Name)
		if def == nil || def.kind == kindModel {
			continue
		}
		p := func(n string) float64 { return lw.PerLayer[n].median() }
		rtt := lw.EndToEnd["rtt_p50_us"].median() * 1e3
		if rtt == 0 {
			continue
		}
		fmt.Fprintf(w, "\n`%s`: rtt_p50 %.0f ns\n\n| where | ns | share of rtt_p50 |\n|---|---|---|\n", lw.Name, rtt)
		row := func(name string, ns float64) {
			fmt.Fprintf(w, "| %s | %.0f | %.1f %% |\n", name, ns, 100*ns/rtt)
		}
		row("`core.handoff_wait_ns` (wake-ups, scheduler)", p("core.handoff_wait_ns"))
		row("`core.handler_p50_ns`", p("core.handler_p50_ns"))
		row("`core.path_cpu_ns` (stage costs on the blocking path)", p("core.path_cpu_ns"))
		seen := map[string]int{}
		var order []string
		for _, st := range requestPath(def) {
			if seen[st] == 0 {
				order = append(order, st)
			}
			seen[st]++
		}
		for _, st := range order {
			row(fmt.Sprintf("&nbsp;&nbsp;%d x `%s`", seen[st], st), float64(seen[st])*p(st))
		}
	}
	return nil
}
