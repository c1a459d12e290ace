package experiments

import (
	"fmt"
	"io"

	"dagger/internal/connstate"
	"dagger/internal/interconnect"
	"dagger/internal/metrics"
	"dagger/internal/nicmodel"
	"dagger/internal/overload"
	"dagger/internal/sim"
	"dagger/internal/stats"
	"dagger/internal/wire"
)

// The connscale experiment regenerates the paper's connection-scalability
// story (§4.2, Fig. 9): the NIC steers by connection state held in a
// bounded direct-mapped near-memory cache backed by host DRAM, so latency is
// flat while the active connection working set fits the cache and degrades
// by exactly the host-lookup penalty once it spills. Both substrates sit on
// internal/connstate, so the miss counts are byte-identical; the timing
// stack additionally charges the penalty in virtual time and asserts the
// latency step.

// ConnScaleConfig parametrizes one timing-stack connection-scalability
// point.
type ConnScaleConfig struct {
	// Iface is the CPU-NIC interface under test.
	Iface interconnect.Config
	// CacheSize is the server NIC's connection-cache capacity (C).
	CacheSize int
	// Conns is the active connection working set, driven round-robin.
	Conns int
	// Requests is the number of closed-loop RPCs to issue.
	Requests int
}

// ConnScaleResult is one connection-scalability point's measured outcome.
type ConnScaleResult struct {
	Conns int
	// Latency holds closed-loop round trips (ns); with one request in
	// flight the distribution isolates the connection-lookup cost from
	// queueing.
	Latency *stats.Histogram
	// Stats is the server connection manager's counter snapshot: the same
	// connstate.Stats the functional fabric exposes, so the two substrates'
	// miss counts are directly comparable.
	Stats connstate.Stats
	// Metrics is the server NIC's registry snapshot at quiescence (conn.*
	// under the cross-substrate names).
	Metrics metrics.Snapshot
}

// MedianUs returns the median round trip in microseconds.
func (r *ConnScaleResult) MedianUs() float64 { return float64(r.Latency.Percentile(50)) / 1e3 }

// P99Us returns the 99th-percentile round trip in microseconds.
func (r *ConnScaleResult) P99Us() float64 { return float64(r.Latency.Percentile(99)) / 1e3 }

// MissFrac returns the fraction of steering lookups that fell back to host
// memory.
func (r *ConnScaleResult) MissFrac() float64 {
	total := r.Stats.Hits + r.Stats.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Stats.Misses) / float64(total)
}

// RunConnScalePoint executes one connection-scalability point on the timing
// stack: a single-flow client/server NIC pair in loopback, the full working
// set opened up front, then a closed loop of requests round-robining across
// the connections. Each server-side steering lookup goes through the
// connection manager, so a working set past the cache capacity pays the
// host-lookup penalty on the critical path of every request.
func RunConnScalePoint(cfg ConnScaleConfig) *ConnScaleResult {
	if cfg.Requests <= 0 {
		cfg.Requests = 50_000
	}
	eng := sim.NewEngine()
	clientNIC, err := nicmodel.NewNIC(eng, nicmodel.HardConfig{ConnCacheSize: cfg.CacheSize})
	if err != nil {
		panic(err)
	}
	serverNIC, err := nicmodel.NewNIC(eng, nicmodel.HardConfig{ConnCacheSize: cfg.CacheSize})
	if err != nil {
		panic(err)
	}
	// Open the whole working set up front: the sweep measures steady-state
	// steering, not connection setup. Opens beyond the cache capacity
	// already evict (direct-mapped conflicts), exactly as on the functional
	// substrate.
	for id := 1; id <= cfg.Conns; id++ {
		if err := serverNIC.CM.Open(uint32(id), nicmodel.ConnTuple{SrcFlow: 0}); err != nil {
			panic(err)
		}
	}

	service := OverloadServiceTime(cfg.Iface)
	msg := &wire.Message{Payload: make([]byte, 64)}
	res := &ConnScaleResult{Conns: cfg.Conns, Latency: stats.NewHistogram()}

	issued := 0
	var issue func()
	issue = func() {
		if issued >= cfg.Requests {
			return
		}
		issued++
		id := uint32((issued-1)%cfg.Conns) + 1
		start := eng.Now()
		d := clientNIC.PipelineDelay(msg)
		eng.After(cfg.Iface.TxDeliver()+d+linkDelay, func() {
			_, cmPenalty, err := serverNIC.CM.Lookup(id)
			if err != nil {
				panic(err)
			}
			eng.After(cfg.Iface.RxDeliver()+cmPenalty+service, func() {
				rd := serverNIC.PipelineDelay(msg)
				eng.After(rd+linkDelay+cfg.Iface.RxDeliver(), func() {
					res.Latency.Record(int64(eng.Now() - start))
					issue()
				})
			})
		})
	}
	eng.After(0, issue)
	eng.Run()

	res.Stats = serverNIC.CM.Stats()
	res.Metrics = serverNIC.Metrics().Snapshot()
	return res
}

// connScaleCacheSize is the sweep's server cache capacity: small enough that
// the 4C point stays cheap, large enough that the flat region has several
// points.
const connScaleCacheSize = 64

// RunConnScale regenerates the connection-scalability curve (§4.2, Fig. 9)
// on both substrates. The timing-stack sweep is deterministic and asserted
// (CI runs it as a smoke test): p99 must stay flat — with zero misses —
// while the working set fits the cache, and must degrade by the host-lookup
// penalty, with every steady-state lookup missing, once the working set
// doubles past it. The functional sweep drives the identical connstate
// geometry through real NICs and asserts the same miss counters; its wall
// clock latencies are indicative.
func RunConnScale(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "connection scalability (§4.2, Fig. 9): p99 vs active connections under a bounded near-memory cache (timing stack)")
	iface := interconnect.Config{Kind: interconnect.UPI, Batch: 1}
	n := reqs(quick, 50_000)
	penaltyUs := float64(connstate.HostLookupPenaltyNanos) / 1e3
	fmt.Fprintf(w, "  cache C=%d conns, host-lookup penalty %.1fus, %d closed-loop requests/point\n",
		connScaleCacheSize, penaltyUs, n)
	fmt.Fprintf(w, "  %-8s %-6s | %9s %9s | %10s %10s %7s\n",
		"conns", "vs C", "p50", "p99", "hits", "misses", "miss%")

	var base *ConnScaleResult
	for _, conns := range []int{
		connScaleCacheSize / 4, connScaleCacheSize / 2, connScaleCacheSize,
		2 * connScaleCacheSize, 4 * connScaleCacheSize,
	} {
		r := RunConnScalePoint(ConnScaleConfig{
			Iface: iface, CacheSize: connScaleCacheSize, Conns: conns, Requests: n,
		})
		fmt.Fprintf(w, "  %-8d %-6s | %8.2fus %8.2fus | %10d %10d %6.1f%%\n",
			conns, fmt.Sprintf("%gx", float64(conns)/connScaleCacheSize),
			r.MedianUs(), r.P99Us(), r.Stats.Hits, r.Stats.Misses, 100*r.MissFrac())
		if base == nil {
			base = r
		}
		// Regression gates (enforced by CI's smoke run): the flat region must
		// be genuinely flat and miss-free, and the spill region must pay the
		// host-lookup penalty on essentially every request.
		switch {
		case conns <= connScaleCacheSize:
			if r.Stats.Misses != 0 {
				return fmt.Errorf("connscale: %d conns inside a %d-entry cache missed %d lookups",
					conns, connScaleCacheSize, r.Stats.Misses)
			}
			if diff := r.P99Us() - base.P99Us(); diff > penaltyUs/2 || diff < -penaltyUs/2 {
				return fmt.Errorf("connscale: p99 moved %.2fus across the flat region (conns=%d)",
					diff, conns)
			}
		default:
			if r.P99Us() < base.P99Us()+0.9*penaltyUs {
				return fmt.Errorf("connscale: %d conns p99 %.2fus did not degrade by the %.1fus penalty over base %.2fus",
					conns, r.P99Us(), penaltyUs, base.P99Us())
			}
			if r.Stats.Misses < uint64(9*n/10) {
				return fmt.Errorf("connscale: %d conns missed only %d/%d lookups",
					conns, r.Stats.Misses, n)
			}
		}
		// The last sweep point (4C, every lookup spilling) is the one the
		// unified report keeps.
		PublishMetrics("connscale", r.Metrics)
	}

	fmt.Fprintln(w, "  functional stack (real NICs and goroutines; miss counters asserted, latency indicative):")
	rounds := 6
	if quick {
		rounds = 3
	}
	fr, err := overload.RunConnScale(overload.ConnScaleConfig{Rounds: rounds})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "    fit   %3d conns (C=%d): calls=%d misses=%d p50=%v p99=%v\n",
		fr.FitConns, fr.CacheSize, fr.FitCalls, fr.FitMisses, fr.FitP50, fr.FitP99)
	fmt.Fprintf(w, "    spill %3d conns:        calls=%d misses=%d (%.0f%%) p50=%v p99=%v\n",
		fr.SpillConns, fr.SpillCalls, fr.SpillMisses,
		100*float64(fr.SpillMisses)/float64(max(1, fr.SpillCalls)), fr.SpillP50, fr.SpillP99)
	fmt.Fprintf(w, "    churn: all %d conns closed, server table drained to %d entries\n",
		fr.SpillConns, fr.FinalOpen)
	return nil
}
