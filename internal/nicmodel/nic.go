package nicmodel

import (
	"fmt"

	"dagger/internal/connstate"
	"dagger/internal/dataplane"
	"dagger/internal/metrics"
	"dagger/internal/sim"
	"dagger/internal/wire"
)

// HardConfig holds the NIC parameters fixed at synthesis time (§4.1 "hard
// configuration"): chosen via SystemVerilog macros in the paper, via this
// struct here. Changing them means re-synthesizing a bitstream, so the
// experiment harness treats a HardConfig as immutable once a NIC is built.
type HardConfig struct {
	// ConnCacheSize is the connection cache size in entries.
	ConnCacheSize int
}

// Validate checks hard-configuration limits (§4.2).
func (h HardConfig) Validate() error {
	if h.ConnCacheSize <= 0 || h.ConnCacheSize > MaxCachedConnections {
		return fmt.Errorf("nicmodel: connection cache %d outside (0, %d]", h.ConnCacheSize, MaxCachedConnections)
	}
	return nil
}

// PipelineTiming captures the FPGA RPC unit's stage latencies. The RPC unit
// runs at 200 MHz (Table 1); a handful of pipeline stages give ~50 ns of
// transit latency, and the pipeline sustains one RPC per cycle (200 Mrps —
// §5.5 notes the NIC itself "is capable of processing up to 200 Mrps").
type PipelineTiming struct {
	// Transit is the cut-through latency of the RPC unit + transport.
	Transit sim.Time
	// PerRPC is the pipeline occupancy per RPC (1 / 200 MHz = 5 ns).
	PerRPC sim.Time
	// PerExtraLine is the added occupancy per cache line beyond the first
	// for multi-line RPCs.
	PerExtraLine sim.Time
}

// DefaultPipelineTiming returns the Table 1 clocking.
func DefaultPipelineTiming() PipelineTiming {
	return PipelineTiming{Transit: 30, PerRPC: 5, PerExtraLine: 5}
}

// PacketMonitor collects the networking statistics block's counters
// (Figure 6). Every NIC registers them in its metrics registry at creation.
type PacketMonitor struct {
	Sheds metrics.Counter
}

// NIC is one Dagger NIC instance: its connection manager, host coherent
// cache, packet monitor, and RPC-unit pipeline. Several instances can share
// one FPGA (virtualization, Figure 14); the arbiter lives in netmodel.
type NIC struct {
	eng *sim.Engine

	CM      *ConnectionManager
	HCC     *HCC
	Monitor PacketMonitor
	Timing  PipelineTiming

	reg *metrics.Registry

	// pipe serializes RPC-unit occupancy.
	pipeBusyUntil sim.Time
}

// Metrics returns the NIC's telemetry registry. Shared-policy families use
// the cross-substrate names (conn.*, shed.*) so snapshots diff cleanly
// against the functional fabric's SoftNIC.
func (n *NIC) Metrics() *metrics.Registry { return n.reg }

// describeMetrics registers the packet-monitor counters plus read-time
// gauges over the connection manager and HCC.
func (n *NIC) describeMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("shed.expired", &n.Monitor.Sheds)
	n.HCC.DescribeMetrics(reg)
	connstate.DescribeMetrics(reg, func() (connstate.Stats, int) {
		return n.CM.Stats(), n.CM.OpenCount()
	})
}

// NewNIC builds a NIC from a hard configuration.
func NewNIC(eng *sim.Engine, hard HardConfig) (*NIC, error) {
	if err := hard.Validate(); err != nil {
		return nil, err
	}
	n := &NIC{
		eng:    eng,
		Timing: DefaultPipelineTiming(),
		CM:     NewConnectionManager(hard.ConnCacheSize),
		HCC:    NewHCC(),
		reg:    metrics.New(),
	}
	n.describeMetrics(n.reg)
	return n, nil
}

// PipelineDelay charges the RPC unit's pipeline for one message and returns
// the time at which it exits the NIC: cut-through transit plus occupancy
// serialization (the unit processes one line per cycle).
func (n *NIC) PipelineDelay(m *wire.Message) sim.Time {
	now := n.eng.Now()
	start := now
	if n.pipeBusyUntil > start {
		start = n.pipeBusyUntil
	}
	occ := n.Timing.PerRPC + sim.Time(m.Lines()-1)*n.Timing.PerExtraLine
	n.pipeBusyUntil = start + occ
	return (start - now) + occ + n.Timing.Transit
}

// ShedExpired is the timing-stack entry into the dataplane shed policy:
// a simulated request that arrived at arrival carrying budgetMicros of
// deadline budget (0 = no deadline) is shed — before it occupies a server
// core — when its budget has expired by the engine's current virtual time.
// Shed requests are counted in Monitor.Sheds. The decision is the same
// dataplane.ShouldShed the functional core server uses with wall-clock
// time, so the parity test can assert identical verdicts.
func (n *NIC) ShedExpired(arrival sim.Time, budgetMicros uint32) bool {
	elapsed := dataplane.ElapsedMicros(int64(n.eng.Now() - arrival))
	if !dataplane.ShouldShed(budgetMicros, elapsed) {
		return false
	}
	n.Monitor.Sheds.Add(1)
	return true
}
