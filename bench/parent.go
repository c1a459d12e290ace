package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runProcs is how many measuring processes an untraced run is spread over,
// and runTrim how many of their values are dropped at each end before the
// rest are averaged. On the 2-vCPU sandbox the largest noise term is decided
// per process: the same binary settles in one of two modes on echo_sync (near
// 385 krps at 2.9 us of CPU per RPC, or near 347 krps at 3.4 us; about three
// processes in five take the first) and keeps it for life, whatever the seed,
// and even when the workload is rebuilt inside the process. A run must
// therefore sample many processes, and must not report their median, which
// jumps from one mode to the other with the majority: the trimmed mean moves
// only with the share of processes in each mode, and the trimming keeps a
// process or two that the host disturbed out of it. Set-up also runs runProcs
// times per run; setup_s is folded the same way.
const (
	runProcs = 12
	runTrim  = 2
)

// runSpread executes an untraced run: runProcs child processes of this
// binary in turn, each measuring seconds/runProcs, merged by merge.
func runSpread(w *workloadDef, seed int64, seconds float64) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var kids []*result
	for i := 0; i < runProcs; i++ {
		cmd := exec.Command(self, "-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds/runProcs, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output() // Output waits for the child to end
		if err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", i, err)
		}
		kid, err := lastLine(out)
		if err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", i, err)
		}
		kids = append(kids, kid)
	}
	return mergeResults(kids), nil
}

// lastLine parses the result line that ends a run's standard output.
func lastLine(stdout []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// mergeResults folds the measuring processes' results into the run's: each
// metric is the trimmed mean over processes, counts add up, and one incorrect
// process makes the run incorrect, for the reasons that process noted.
func mergeResults(kids []*result) *result {
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	for i, k := range kids {
		res.Correct = res.Correct && k.Correct
		res.Attempted += k.Attempted
		res.Failed += k.Failed
		for _, note := range k.Notes {
			res.Notes = append(res.Notes, fmt.Sprintf("measuring process %d: %s", i, note))
		}
	}
	for name, m := range kids[0].Metrics {
		vs := make([]float64, len(kids))
		for i, k := range kids {
			vs[i] = k.Metrics[name].Value
		}
		res.Metrics[name] = metricValue{Value: trimmedMean(vs, runTrim), Unit: m.Unit}
	}
	return res
}
