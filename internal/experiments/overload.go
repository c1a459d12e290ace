package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"dagger/internal/interconnect"
	"dagger/internal/metrics"
	"dagger/internal/nicmodel"
	"dagger/internal/overload"
	"dagger/internal/sim"
	"dagger/internal/stats"
	"dagger/internal/wire"
	"dagger/internal/workload"
)

// OverloadConfig parametrizes one point of the paper's overload story
// (§4.2, Fig. 7) on the timing stack: an open-loop client offers load —
// possibly past the server core's capacity — and every request carries a
// deadline budget. With Shed set the server NIC applies the dataplane shed
// policy before dispatch (nicmodel.NIC.ShedExpired): budget-expired work is
// dropped at core-grant time instead of occupying the core. Without Shed
// the same expired work still executes, which is the tail amplification the
// budget exists to prevent.
type OverloadConfig struct {
	// Iface is the CPU-NIC interface under test.
	Iface interconnect.Config
	// OfferedRPS is the open-loop offered load.
	OfferedRPS float64
	// Requests is the number of RPCs to issue.
	Requests int
	// BudgetMicros is the per-request deadline budget (µs); 0 disables
	// deadlines entirely.
	BudgetMicros uint32
	// Shed enables shed-before-dispatch at the server.
	Shed bool
	Seed int64
}

// OverloadResult is one overload point's measured outcome.
type OverloadResult struct {
	OfferedRPS float64
	// GoodputRPS counts only completions that met their deadline.
	GoodputRPS float64
	// Latency holds round-trip latencies of completed requests (ns). Shed
	// requests never complete and are excluded — the point of shedding is
	// that the client has already given up on them.
	Latency   *stats.Histogram
	Completed int
	// Shed counts requests dropped by the shed policy before dispatch.
	Shed int
	// DeadlineMisses counts requests that completed after their deadline
	// (doomed work the server executed anyway; always 0 when Shed is on).
	DeadlineMisses int
	// Metrics is the server NIC's registry snapshot at quiescence
	// (shed.expired, conn.*, ... under the cross-substrate names).
	Metrics metrics.Snapshot
}

// MedianUs returns the median completed round trip in microseconds.
func (r *OverloadResult) MedianUs() float64 { return float64(r.Latency.Percentile(50)) / 1e3 }

// P99Us returns the 99th-percentile completed round trip in microseconds.
func (r *OverloadResult) P99Us() float64 { return float64(r.Latency.Percentile(99)) / 1e3 }

// OverloadServiceTime returns the per-request server-core occupancy the
// overload model charges for iface (receive pickup + response submission,
// the same symmetric cost RunEcho uses), which caps sustainable throughput
// at 1e9/OverloadServiceTime requests per second.
func OverloadServiceTime(iface interconnect.Config) sim.Time {
	return interconnect.ThreadCPUPerRPC(iface, 1)
}

// RunOverloadPoint executes one overload point on the timing stack: a
// single-flow client/server NIC pair in loopback, one server core, Poisson
// open-loop arrivals, budget-carrying simulated requests.
func RunOverloadPoint(cfg OverloadConfig) *OverloadResult {
	if cfg.Requests <= 0 {
		cfg.Requests = 100_000
	}
	eng := sim.NewEngine()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	arrivals := workload.NewPoissonArrival(rng, cfg.OfferedRPS)

	clientNIC, err := nicmodel.NewNIC(eng, nicmodel.HardConfig{ConnCacheSize: 1024})
	if err != nil {
		panic(err)
	}
	serverNIC, err := nicmodel.NewNIC(eng, nicmodel.HardConfig{ConnCacheSize: 1024})
	if err != nil {
		panic(err)
	}
	if err := serverNIC.CM.Open(1, nicmodel.ConnTuple{SrcFlow: 0}); err != nil {
		panic(err)
	}

	serverCore := sim.NewResource(eng, 1)
	service := OverloadServiceTime(cfg.Iface)
	msg := &wire.Message{Payload: make([]byte, 64)}
	res := &OverloadResult{OfferedRPS: cfg.OfferedRPS, Latency: stats.NewHistogram()}

	var firstArrival, lastCompletion sim.Time
	budgetNanos := sim.Time(cfg.BudgetMicros) * sim.Microsecond
	inBudget := 0

	complete := func(start sim.Time) {
		d := serverNIC.PipelineDelay(msg)
		eng.After(d+linkDelay+cfg.Iface.RxDeliver(), func() {
			total := eng.Now() - start
			res.Completed++
			res.Latency.Record(int64(total))
			if budgetNanos > 0 && total > budgetNanos {
				res.DeadlineMisses++
			} else {
				inBudget++
			}
			if eng.Now() > lastCompletion {
				lastCompletion = eng.Now()
			}
		})
	}

	serveReq := func(start sim.Time) {
		_, cmPenalty, err := serverNIC.CM.Lookup(1)
		if err != nil {
			panic(err)
		}
		eng.After(cfg.Iface.RxDeliver()+cmPenalty, func() {
			serverCore.Acquire(func() {
				// Shed-before-dispatch: the dataplane shed policy runs at
				// core-grant time, covering budget spent in the queue, and
				// a shed request never occupies the core.
				if cfg.Shed && serverNIC.ShedExpired(start, cfg.BudgetMicros) {
					serverCore.Release()
					res.Shed++
					return
				}
				eng.After(service, func() {
					serverCore.Release()
					complete(start)
				})
			})
		})
	}

	issued := 0
	var arrive func()
	arrive = func() {
		if issued >= cfg.Requests {
			return
		}
		issued++
		start := eng.Now()
		if issued == 1 {
			firstArrival = start
		}
		d := clientNIC.PipelineDelay(msg)
		eng.After(cfg.Iface.TxDeliver()+d+linkDelay, func() { serveReq(start) })
		eng.After(arrivals.NextGap(), arrive)
	}
	eng.After(0, arrive)
	eng.Run()

	if elapsed := lastCompletion - firstArrival; elapsed > 0 {
		res.GoodputRPS = float64(inBudget) / (float64(elapsed) / 1e9)
	}
	res.Metrics = serverNIC.Metrics().Snapshot()
	return res
}

// overloadBudgetMicros is the sweep's per-request deadline budget: an order
// of magnitude above the unloaded round trip, so it only binds once queues
// build up.
const overloadBudgetMicros = 50

// RunOverload regenerates the paper's overload/tail-latency story (§4.2,
// Fig. 7 dispatcher): an open-loop load sweep past server saturation, run
// with budget shedding off and on, on both substrates. The timing-stack
// sweep is deterministic and asserts the separation the shed policy exists
// to produce: past saturation, the p99 of completed requests with shedding
// on stays near the budget while without shedding it grows with the
// backlog. The functional-stack sweep drives the same policy through real
// goroutines and wall clocks (indicative, not asserted).
func RunOverload(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "§4.2 overload: deadline-budget shedding under open-loop load (timing stack)")
	iface := interconnect.Config{Kind: interconnect.UPI, Batch: 1}
	satRPS := 1e9 / float64(OverloadServiceTime(iface))
	n := reqs(quick, 200_000)
	fmt.Fprintf(w, "  server capacity ~%.1f Mrps, budget %dus, %d requests/point\n",
		satRPS/1e6, overloadBudgetMicros, n)
	fmt.Fprintf(w, "  %-8s %-9s | %9s %9s %7s | %9s %9s %7s\n",
		"load", "offered", "off p50", "off p99", "miss%", "on p50", "on p99", "shed%")

	type point struct{ off, on *OverloadResult }
	var last point
	for _, mult := range []float64{0.7, 1.0, 1.5, 2.5} {
		cfg := OverloadConfig{
			Iface: iface, OfferedRPS: mult * satRPS, Requests: n,
			BudgetMicros: overloadBudgetMicros, Seed: int64(mult * 100),
		}
		off := RunOverloadPoint(cfg)
		cfg.Shed = true
		on := RunOverloadPoint(cfg)
		fmt.Fprintf(w, "  %-8s %-9s | %8.1fus %8.1fus %6.1f%% | %8.1fus %8.1fus %6.1f%%\n",
			fmt.Sprintf("%.1fx", mult), fmt.Sprintf("%.1fMrps", cfg.OfferedRPS/1e6),
			off.MedianUs(), off.P99Us(), 100*float64(off.DeadlineMisses)/float64(max(1, off.Completed)),
			on.MedianUs(), on.P99Us(), 100*float64(on.Shed)/float64(n))
		last = point{off: off, on: on}
	}
	// The experiment's regression gate (also enforced by CI's smoke run):
	// past saturation, shedding must bound the completed-request tail below
	// the no-shed tail, or the overload story has rotted.
	if last.on.P99Us() >= last.off.P99Us() {
		return fmt.Errorf("overload: shed-on p99 %.1fus >= shed-off p99 %.1fus past saturation",
			last.on.P99Us(), last.off.P99Us())
	}
	if last.on.Shed == 0 {
		return fmt.Errorf("overload: no requests shed at %.1fx saturation", 2.5)
	}
	PublishMetrics("overload", last.on.Metrics)

	fmt.Fprintln(w, "  functional stack (real goroutines, wall clock; indicative):")
	fdur := 300 * time.Millisecond
	if quick {
		fdur = 150 * time.Millisecond
	}
	for _, shed := range []bool{false, true} {
		fr, err := overload.Run(overload.Config{
			OfferedMultiple: 2.5, Duration: fdur, Shed: shed, Seed: 11,
		})
		if err != nil {
			return err
		}
		mode := "off"
		if shed {
			mode = "on"
		}
		fmt.Fprintf(w, "    shed %-3s: issued=%d completed=%d shed=%d p50=%.2fms p99=%.2fms\n",
			mode, fr.Issued, fr.Completed, fr.Shed,
			float64(fr.P50.Microseconds())/1e3, float64(fr.P99.Microseconds())/1e3)
	}
	return nil
}
