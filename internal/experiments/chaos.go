package experiments

import (
	"fmt"
	"io"

	"dagger/internal/faults"
	"dagger/internal/interconnect"
	"dagger/internal/metrics"
	"dagger/internal/nicmodel"
	"dagger/internal/overload"
	"dagger/internal/sim"
	"dagger/internal/stats"
)

// The chaos experiment drives both substrates through the deterministic
// fault-injection plane (internal/faults) and gates graceful degradation:
// under per-class fault rates up to 1%, goodput must stay within 10% of the
// clean run, tail latency must inflate by at most two retransmission
// timeouts, every corrupted frame must be caught by the header checksum
// (zero corrupt frames dispatched), and nothing may hang — every request
// completes. The timing-stack sweep is virtual-time deterministic and
// asserted (CI runs it as a smoke test); the functional half drives the same
// injector through real NICs, goroutines, and the reliable transport.

// ChaosPointConfig parametrizes one timing-stack chaos point.
type ChaosPointConfig struct {
	// Iface is the CPU-NIC interface under test.
	Iface interconnect.Config
	// PPM is the aggregate fault rate in parts per million, split evenly
	// across the five classes (Drop, Duplicate, Delay, Reorder, Corrupt).
	PPM uint32
	// Seed selects the fault plan.
	Seed uint64
	// Requests is the number of closed-loop RPCs to issue.
	Requests int
	// RTO is the client's virtual retransmission timeout: a request
	// unanswered for this long is re-sent. Lost and corrupted frames are
	// recovered through it, so it bounds per-fault latency inflation.
	RTO sim.Time
}

// ChaosPointResult is one chaos point's measured outcome.
type ChaosPointResult struct {
	PPM     uint32
	Latency *stats.Histogram
	// Completed counts requests that received a response; the no-hang gate
	// requires it to equal Requests.
	Completed int
	// Retransmits counts virtual-RTO re-sends.
	Retransmits uint64
	// Elapsed is the virtual makespan of the closed loop; goodput is
	// Requests/Elapsed.
	Elapsed sim.Time
	// Fault-stage counters from the server RX path.
	FaultDrops, FaultCorrupts, CorruptDrops uint64
	// Metrics is the RX path's registry snapshot at quiescence.
	Metrics metrics.Snapshot
}

// P99Us returns the 99th-percentile round trip in microseconds.
func (r *ChaosPointResult) P99Us() float64 { return float64(r.Latency.Percentile(99)) / 1e3 }

// MedianUs returns the median round trip in microseconds.
func (r *ChaosPointResult) MedianUs() float64 { return float64(r.Latency.Percentile(50)) / 1e3 }

// GoodputRPS returns completed requests per second of virtual time.
func (r *ChaosPointResult) GoodputRPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / (float64(r.Elapsed) / 1e9)
}

// RunChaosPoint executes one chaos point on the timing stack: a closed loop
// of requests from a virtual client through the server RX path's fault stage.
// The client re-sends any request unanswered within the RTO, so dropped,
// corrupted, and held frames are all eventually recovered; duplicate
// completions (from Duplicate verdicts or retransmit races) are deduplicated
// client-side by RPC id, pinning the at-least-once/exactly-once split the
// functional stack exhibits.
func RunChaosPoint(cfg ChaosPointConfig) *ChaosPointResult {
	if cfg.Requests <= 0 {
		cfg.Requests = 20_000
	}
	eng := sim.NewEngine()
	rx := nicmodel.NewRxPath(1, 4096)
	if cfg.PPM > 0 {
		per := cfg.PPM / 5
		inj, err := faults.NewInjector(faults.Config{
			Seed: cfg.Seed,
			Rates: faults.Rates{
				Drop: per, Duplicate: per, Delay: per,
				Reorder: per, Corrupt: per,
			},
		})
		if err != nil {
			panic(err)
		}
		rx.SetFaultInjector(inj)
	}
	reg := metrics.New()
	rx.DescribeMetrics(reg)

	service := OverloadServiceTime(cfg.Iface)
	reqDelay := cfg.Iface.TxDeliver() + linkDelay
	respDelay := service + linkDelay + cfg.Iface.RxDeliver()
	res := &ChaosPointResult{PPM: cfg.PPM, Latency: stats.NewHistogram()}
	done := make([]bool, cfg.Requests+1)
	started := make([]sim.Time, cfg.Requests+1)

	issued := 0
	var issue func()
	var send func(id int)
	// The server side: every admitted entry completes after the service and
	// return-path delays. Duplicate deliveries complete twice; the client's
	// done[] check absorbs the extra.
	pump := func() {
		for _, e := range rx.Complete(0) {
			id := int(e.RPCID)
			eng.After(respDelay, func() {
				if done[id] {
					return
				}
				done[id] = true
				res.Completed++
				res.Latency.Record(int64(eng.Now() - started[id]))
				issue()
			})
		}
	}
	send = func(id int) {
		eng.After(reqDelay, func() {
			rx.Deliver(nicmodel.RxEntry{RPCID: uint64(id)})
			pump()
		})
		// Virtual RTO: if the request is still unanswered (dropped, corrupted,
		// or held by the fault stage), re-send. Each re-send is a fresh
		// admission, which also ages held entries toward release.
		eng.After(reqDelay+cfg.RTO, func() {
			if !done[id] {
				res.Retransmits++
				send(id)
			}
		})
	}
	issue = func() {
		if issued >= cfg.Requests {
			return
		}
		issued++
		id := issued
		started[id] = eng.Now()
		send(id)
	}
	eng.After(0, issue)
	eng.Run()

	res.Elapsed = eng.Now()
	res.Metrics = reg.Snapshot()
	res.FaultDrops = uint64(res.Metrics.Value("fault.dropped"))
	res.FaultCorrupts = uint64(res.Metrics.Value("fault.corrupted"))
	res.CorruptDrops = uint64(res.Metrics.Value("fault.corrupt.dropped"))
	return res
}

// RunChaos regenerates the fault-injection degradation sweep on both
// substrates and enforces the hardening gates (see the package comment at the
// top of this file). CI runs it in quick mode as a smoke test.
func RunChaos(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "chaos (Fig. 6 transport/protocol units, §4.5): goodput and tail under deterministic fault injection (timing stack)")
	iface := interconnect.Config{Kind: interconnect.UPI, Batch: 1}
	n := reqs(quick, 20_000)
	// The RTO must comfortably clear one clean round trip; four is the
	// margin a real transport would converge near.
	rto := 4 * (iface.TxDeliver() + linkDelay + OverloadServiceTime(iface) + linkDelay + iface.RxDeliver())
	fmt.Fprintf(w, "  aggregate fault rate split across 5 classes (drop/dup/delay/reorder/corrupt), RTO %v, %d closed-loop requests/point\n", rto, n)
	fmt.Fprintf(w, "  %-8s | %9s %9s | %9s %7s | %7s %7s %7s\n",
		"rate", "p50", "p99", "goodput", "rexmit", "drops", "corrupt", "caught")

	var clean *ChaosPointResult
	for _, ppm := range []uint32{0, 1_000, 10_000} { // 0, 0.1%, 1% aggregate
		r := RunChaosPoint(ChaosPointConfig{
			Iface: iface, PPM: ppm, Seed: 0xC4A05, Requests: n, RTO: rto,
		})
		fmt.Fprintf(w, "  %-8s | %8.2fus %8.2fus | %7.2fM %7d | %7d %7d %7d\n",
			fmt.Sprintf("%.1f%%", float64(ppm)/10_000),
			r.MedianUs(), r.P99Us(), r.GoodputRPS()/1e6, r.Retransmits,
			r.FaultDrops, r.FaultCorrupts, r.CorruptDrops)
		if clean == nil {
			clean = r
		}
		// Hardening gates, every point.
		if r.Completed != n {
			return fmt.Errorf("chaos: %d of %d requests completed at rate %dppm — a call hung or was lost for good",
				r.Completed, n, ppm)
		}
		if r.CorruptDrops != r.FaultCorrupts {
			return fmt.Errorf("chaos: %d corrupted frames injected but only %d caught — corrupt frames were dispatched",
				r.FaultCorrupts, r.CorruptDrops)
		}
		if ppm >= 10_000 && (r.FaultDrops == 0 || r.FaultCorrupts == 0) {
			return fmt.Errorf("chaos: rate %dppm injected no faults; the sweep is vacuous", ppm)
		}
		// Graceful-degradation gates at <=1% aggregate fault rate.
		if float64(r.Elapsed) > float64(clean.Elapsed)/0.9 {
			return fmt.Errorf("chaos: goodput at %dppm degraded past 10%%: makespan %v vs clean %v",
				ppm, r.Elapsed, clean.Elapsed)
		}
		if maxP99 := clean.P99Us() + 2*float64(rto)/1e3; r.P99Us() > maxP99 {
			return fmt.Errorf("chaos: p99 %.2fus at %dppm exceeds clean p99 + 2 RTO (%.2fus)",
				r.P99Us(), ppm, maxP99)
		}
		// The last sweep point (1% per class) is the one the unified report
		// keeps.
		PublishMetrics("chaos", r.Metrics)
	}

	fmt.Fprintln(w, "  functional stack (real NICs, goroutines, reliable transport; same injector):")
	fr, err := overload.RunChaos(overload.ChaosConfig{Quick: quick})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "    in-fabric: %d calls, %d ok, %d timed out, %d corrupt accepted (NIC caught %d/%d)\n",
		fr.Calls, fr.Succeeded, fr.TimedOut, fr.CorruptAccepted, fr.NICCorruptDrops, fr.NICCorrupts)
	fmt.Fprintf(w, "    lossy transport: %d/%d calls ok over %.1f%% datagram loss (%d retransmits)\n",
		fr.LossySucceeded, fr.LossyCalls, 100*fr.LossRate, fr.Retransmits)
	fmt.Fprintf(w, "    dead peer: failed fast in %v with ErrPeerDead (%d dead letters)\n",
		fr.DeadLatency, fr.DeadLetters)
	return nil
}
