package overload

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dagger/internal/core"
	"dagger/internal/dataplane"
	"dagger/internal/fabric"
	"dagger/internal/retry"
)

const (
	fnCongested = 2
	// congRingDepth sizes the server's RX ring small enough that a closed
	// loop of congWorkers callers keeps it past the half-occupancy mark
	// threshold: the handler occupies the dispatch thread for congService,
	// so all but one in-flight request age in the ring.
	congRingDepth = 32
	congWorkers   = 24
	// congService is the handler's per-request occupancy of the dispatch
	// thread (spun, not slept — see the overload handler).
	congService = 20 * time.Microsecond
)

// CongestionConfig parametrizes one functional closed-loop congestion run.
type CongestionConfig struct {
	// Workers is the number of closed-loop callers (default congWorkers).
	Workers int
	// Duration is how long the callers keep issuing requests.
	Duration time.Duration
	Seed     int64
}

// CongestionResult is one functional congestion run's outcome.
type CongestionResult struct {
	Issued    int
	Completed int
	Errors    int
	// Marks is the client's count of responses carrying the congestion
	// mark stamped by the fabric at RX-ring admission.
	Marks uint64
	// Refused is the client's count of issues refused by its own AIMD
	// window (each was retried under the scaled backoff schedule).
	Refused uint64
	// FinalWindow is the AIMD window when the run ended; a value below
	// dataplane.DefaultMaxWindow proves the loop engaged.
	FinalWindow int
	P50         time.Duration // completed requests only
	P99         time.Duration
}

// RunCongestion executes one functional closed-loop congestion run: real
// goroutines hammer a server whose dispatch thread is the bottleneck, the
// fabric stamps frames admitted past half ring occupancy, the server echoes
// the stamp, and the client's AIMD window plus scaled retry backoff absorb
// the signal. The wall clock makes the numbers indicative, not
// deterministic; the asserted comparison lives on the timing stack.
func RunCongestion(cfg CongestionConfig) (*CongestionResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = congWorkers
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 200 * time.Millisecond
	}
	// Dispatch-thread handlers: the spin holds the lone dispatch goroutine,
	// so every other in-flight request ages in the RX ring where the fabric's
	// admission-time mark can see the backlog.
	fab := fabric.NewFabric()
	r, err := newRig(fab, fab, rigConfig{
		fn: fnCongested, name: "congestion.work", service: congService, serverRing: congRingDepth,
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	cli := r.cli

	res := &CongestionResult{}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		wg        sync.WaitGroup
	)
	pol := retry.Policy{
		Base: congService, Max: 64 * congService, Multiplier: 2,
		MaxAttempts: 20, Jitter: 0.2, Seed: uint64(cfg.Seed + 1),
	}
	payload := []byte("congestion")
	deadline := time.Now().Add(cfg.Duration)
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				start := time.Now()
				resp, err := cli.CallRetry(context.Background(), pol, fnCongested, payload)
				mu.Lock()
				res.Issued++
				switch {
				case err == nil:
					latencies = append(latencies, time.Since(start))
					res.Completed++
				case errors.Is(err, core.ErrClientClose):
					mu.Unlock()
					return
				default:
					res.Errors++
				}
				mu.Unlock()
				if err == nil {
					cli.Release(resp)
				}
			}
		}()
	}
	wg.Wait()

	res.Marks = cli.Marks.Load()
	res.Refused = cli.Refused.Load()
	if st, ok := cli.Congestion(r.conn); ok {
		res.FinalWindow = st.Window
	}
	res.P50, res.P99 = latPercentiles(latencies)
	if res.Completed == 0 {
		return nil, fmt.Errorf("congestion: no requests completed (issued %d)", res.Issued)
	}
	if res.Marks == 0 {
		return nil, fmt.Errorf("congestion: %d workers over a depth-%d ring produced no marks",
			cfg.Workers, congRingDepth)
	}
	if res.FinalWindow >= dataplane.DefaultMaxWindow {
		return nil, fmt.Errorf("congestion: AIMD window never engaged (window %d)", res.FinalWindow)
	}
	return res, nil
}
