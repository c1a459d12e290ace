package nicmodel

import (
	"fmt"

	"dagger/internal/connstate"
	"dagger/internal/dataplane"
	"dagger/internal/interconnect"
	"dagger/internal/metrics"
	"dagger/internal/sim"
	"dagger/internal/wire"
)

// HardConfig holds the NIC parameters fixed at synthesis time (§4.1 "hard
// configuration"): chosen via SystemVerilog macros in the paper, via this
// struct here. Changing them means re-synthesizing a bitstream, so the
// experiment harness treats a HardConfig as immutable once a NIC is built.
type HardConfig struct {
	// NFlows is the number of parallel NIC flows (and RX/TX ring pairs).
	NFlows int
	// ConnCacheSize is the connection cache size in entries.
	ConnCacheSize int
	// Iface selects the CPU-NIC interface family and batch width.
	Iface interconnect.Config
	// FlowFIFODepth bounds each flow FIFO (0 = unbounded).
	FlowFIFODepth int
}

// MaxNFlows is the synthesis limit on flows from Table 1.
const MaxNFlows = 512

// Validate checks hard-configuration limits (Table 1).
func (h HardConfig) Validate() error {
	if h.NFlows <= 0 || h.NFlows > MaxNFlows {
		return fmt.Errorf("nicmodel: NFlows %d outside (0, %d]", h.NFlows, MaxNFlows)
	}
	if h.ConnCacheSize <= 0 || h.ConnCacheSize > MaxCachedConnections {
		return fmt.Errorf("nicmodel: connection cache %d outside (0, %d]", h.ConnCacheSize, MaxCachedConnections)
	}
	return h.Iface.Validate()
}

// SoftConfig holds the parameters adjustable at runtime through the
// soft-reconfiguration unit's register file (§4.1): CCI-P batch size,
// ring provisioning, active flows, and the load balancing scheme.
type SoftConfig struct {
	// Batch is the effective CCI-P batching width (<= hard Iface.Batch
	// ceiling is not required; auto mode moves it with load).
	Batch int
	// ActiveFlows <= NFlows restricts how many flows carry traffic.
	ActiveFlows int
	// Balancer selects the request steering scheme.
	Balancer BalancerKind
	// RXRingEntries / TXRingEntries provision the software rings.
	RXRingEntries int
	TXRingEntries int
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
// (Figure 6). metrics.Counter is a drop-in for the atomic.Uint64 these grew
// up as; every NIC registers them in its metrics registry at creation.
type PacketMonitor struct {
	RPCsIn       metrics.Counter
	RPCsOut      metrics.Counter
	BytesIn      metrics.Counter
	BytesOut     metrics.Counter
	Drops        metrics.Counter
	Sheds        metrics.Counter
	BatchesSent  metrics.Counter
	SoftReconfig metrics.Counter
}

// NIC is one Dagger NIC instance: hard configuration, current soft
// configuration, and its hardware blocks. Several instances can share one
// FPGA (virtualization, Figure 14); the arbiter lives in netmodel.
type NIC struct {
	eng  *sim.Engine
	hard HardConfig
	soft SoftConfig

	CM       *ConnectionManager
	Balancer *Balancer
	TX       *TxPath
	HCC      *HCC
	Monitor  PacketMonitor
	Timing   PipelineTiming

	reg *metrics.Registry

	// pipe serializes RPC-unit occupancy.
	pipeBusyUntil sim.Time
}

// Metrics returns the NIC's telemetry registry. Shared-policy families use
// the cross-substrate names (conn.*, shed.*, mark.*) so snapshots diff
// cleanly against the functional fabric's SoftNIC.
func (n *NIC) Metrics() *metrics.Registry { return n.reg }

// describeMetrics registers the packet-monitor counters plus read-time
// gauges over the connection manager, HCC, and TX path. TX metrics are
// gauges closing over n — Reconfigure rebuilds n.TX, and the registry must
// keep following the live instance.
func (n *NIC) describeMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("rpc.in", &n.Monitor.RPCsIn)
	reg.RegisterCounter("rpc.out", &n.Monitor.RPCsOut)
	reg.RegisterCounter("bytes.in", &n.Monitor.BytesIn)
	reg.RegisterCounter("bytes.out", &n.Monitor.BytesOut)
	reg.RegisterCounter("drop.ring", &n.Monitor.Drops)
	reg.RegisterCounter("shed.expired", &n.Monitor.Sheds)
	reg.RegisterCounter("batch.sent", &n.Monitor.BatchesSent)
	reg.RegisterCounter("reconfig.soft", &n.Monitor.SoftReconfig)
	n.HCC.DescribeMetrics(reg)
	connstate.DescribeMetrics(reg, func() (connstate.Stats, int) {
		return n.CM.Stats(), n.CM.OpenCount()
	})
	reg.Func("tx.enqueued", func() int64 { return int64(n.TX.Enqueued.Load()) })
	reg.Func("tx.scheduled", func() int64 { return int64(n.TX.Scheduled.Load()) })
	reg.Func("tx.stalls", func() int64 { return int64(n.TX.Stalls.Load()) })
	reg.Func("mark.tx.stamped", func() int64 { return int64(n.TX.Marked.Load()) })
}

// NewNIC builds a NIC from a hard configuration with default soft
// configuration.
func NewNIC(eng *sim.Engine, hard HardConfig) (*NIC, error) {
	if err := hard.Validate(); err != nil {
		return nil, err
	}
	n := &NIC{
		eng:    eng,
		hard:   hard,
		Timing: DefaultPipelineTiming(),
		CM:     NewConnectionManager(hard.ConnCacheSize),
		HCC:    NewHCC(),
	}
	soft := SoftConfig{
		Batch:         hard.Iface.Batch,
		ActiveFlows:   hard.NFlows,
		Balancer:      BalancerStatic,
		RXRingEntries: 64,
		TXRingEntries: 64,
	}
	if err := n.Reconfigure(soft); err != nil {
		return nil, err
	}
	n.reg = metrics.New()
	n.describeMetrics(n.reg)
	return n, nil
}

// Hard returns the NIC's hard configuration.
func (n *NIC) Hard() HardConfig { return n.hard }

// Soft returns the current soft configuration.
func (n *NIC) Soft() SoftConfig { return n.soft }

// Reconfigure applies a new soft configuration through the
// soft-reconfiguration unit. It validates against the hard configuration
// and rebuilds the steering and TX structures. In hardware this is a few
// MMIO writes to the register file; traffic in flight keeps moving, so
// reconfiguration is cheap and can be done at runtime (e.g. adaptive batch
// sizing, Fig. 11).
func (n *NIC) Reconfigure(s SoftConfig) error {
	if s.Batch <= 0 {
		return fmt.Errorf("nicmodel: soft batch must be positive")
	}
	if s.ActiveFlows <= 0 || s.ActiveFlows > n.hard.NFlows {
		return fmt.Errorf("nicmodel: active flows %d outside (0, %d]", s.ActiveFlows, n.hard.NFlows)
	}
	if s.RXRingEntries <= 0 || s.TXRingEntries <= 0 {
		return fmt.Errorf("nicmodel: ring entries must be positive")
	}
	n.soft = s
	n.Balancer = NewBalancer(s.Balancer, s.ActiveFlows)
	n.TX = NewTxPath(s.Batch, s.ActiveFlows)
	n.Monitor.SoftReconfig.Add(1)
	return nil
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

// TXRingSizeFor computes the paper's TX ring provisioning rule (§4.4):
// ceil(Thr_per_flow * 0.8 / 1e6) entries for a desired per-flow throughput.
func TXRingSizeFor(perFlowRPS float64) int {
	n := int((perFlowRPS*0.8 + 1e6 - 1) / 1e6)
	if n < 1 {
		n = 1
	}
	return n
}
