package nicmodel

import (
	"fmt"

	"dagger/internal/dataplane"
	"dagger/internal/faults"
	"dagger/internal/metrics"
)

// The TX path (Figure 9B): instead of buffering whole RPCs in per-flow
// FIFOs, incoming RPCs land in a shared request buffer (a lookup table
// indexed by slot_id), a free-slot FIFO tracks free entries, and the
// per-flow FIFOs carry only slot references. The flow scheduler picks a
// flow FIFO holding a full batch and hands the referenced payloads to the
// CCI-P transmitter.

// RequestSlot is one request-table entry.
type RequestSlot struct {
	Valid bool
	RPCID uint64
	Flow  uint16
	Data  []byte
	// Marked/Hint carry the congestion stamp applied at table admission
	// when occupancy was at or past the dataplane mark threshold.
	Marked bool
	Hint   uint8
}

// TxPath models the request buffer, free-slot FIFO, flow FIFOs, and the
// flow scheduler. Table size is B * NFlows entries (§4.4.2).
type TxPath struct {
	batch  int
	nflows int
	table  []RequestSlot
	free   []uint32 // free-slot FIFO
	fifos  [][]uint32

	rrCursor int

	// Chaos plane: the shared fault stage (faults.Stage) ahead of table
	// admission, mirroring the RX side. Because the TX table's overflow
	// policy is backpressure (not drop), a held request whose release finds
	// the table full is re-held for the next admission instead of being lost.
	faults *faults.Stage[txRequest]

	// Counters are metrics.Counter (atomic) so a registry snapshot taken
	// from another goroutine never races the enqueue/schedule path.
	Enqueued  metrics.Counter
	Scheduled metrics.Counter
	Stalls    metrics.Counter // enqueue attempts that found no free slot
	Marked    metrics.Counter // requests congestion-marked at table admission
}

// txRequest is one Enqueue's arguments, the item the fault stage carries.
type txRequest struct {
	flow  uint16
	rpcID uint64
	data  []byte
}

// txSink is the request table as the fault stage sees it.
type txSink struct {
	valueSink[txRequest]
	t *TxPath
}

func (s txSink) Admit(q txRequest) bool { return s.t.enqueue(q.flow, q.rpcID, q.data) }

// DescribeMetrics registers the TX path's counters into reg. The NIC
// registers equivalent read-time gauges instead (its TxPath is rebuilt on
// every soft reconfiguration); this direct form serves tests and
// experiments driving a TxPath standalone.
func (t *TxPath) DescribeMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("tx.enqueued", &t.Enqueued)
	reg.RegisterCounter("tx.scheduled", &t.Scheduled)
	reg.RegisterCounter("tx.stalls", &t.Stalls)
	reg.RegisterCounter("mark.tx.stamped", &t.Marked)
	// TX-side fault counters get their own prefix: the cross-substrate
	// fault.* parity names belong to the RX/admission stage (RxPath here,
	// ring admission on the functional fabric), and both paths may share a
	// registry.
	t.faults.Describe(reg, "fault.tx.")
}

// NewTxPath creates a TX path with batch width B over nflows flows.
func NewTxPath(batch, nflows int) *TxPath {
	if batch <= 0 || nflows <= 0 {
		panic("nicmodel: txpath needs positive batch and flows")
	}
	n := batch * nflows
	t := &TxPath{
		batch:  batch,
		nflows: nflows,
		table:  make([]RequestSlot, n),
		free:   make([]uint32, 0, n),
		fifos:  make([][]uint32, nflows),
	}
	for i := 0; i < n; i++ {
		t.free = append(t.free, uint32(i))
	}
	t.faults = faults.NewStage[txRequest](txSink{t: t}, dataplane.TxTableOverflow)
	return t
}

// TableSize returns the request-table capacity (B * NFlows).
func (t *TxPath) TableSize() int { return len(t.table) }

// FreeSlots returns the number of free request-table entries.
func (t *TxPath) FreeSlots() int { return len(t.free) }

// SetFaultInjector installs a deterministic fault stage (internal/faults)
// ahead of request-table admission; nil uninstalls it. Reconfiguring
// releases any requests a previous stage was still holding, in hold order.
func (t *TxPath) SetFaultInjector(inj *faults.Injector) { t.faults.SetInjector(inj) }

// FlushFaults releases every request the fault stage is holding back, in
// hold order. Requests refused by a full table are lost at this point (the
// producer that would have absorbed the backpressure is gone); callers drain
// the scheduler first to avoid that.
func (t *TxPath) FlushFaults() { t.faults.Flush() }

// Enqueue stores an RPC into the request table, through the fault stage when
// an injector is installed, and pushes its slot reference onto the target
// flow's FIFO. Admission is the dataplane queue policy: with no free slot
// the request is refused and stays with the producer
// (dataplane.TxTableOverflow is backpressure — the hardware asserts
// back-pressure on the RPC unit — so nothing is dropped here). Fault-stage
// losses (Drop, CorruptBit) return true: the producer believes the request
// was accepted, exactly as with a frame lost past the admission point.
func (t *TxPath) Enqueue(flow uint16, rpcID uint64, data []byte) bool {
	if int(flow) >= t.nflows {
		panic(fmt.Sprintf("nicmodel: flow %d out of range (%d flows)", flow, t.nflows))
	}
	return t.faults.Deliver(txRequest{flow: flow, rpcID: rpcID, data: data})
}

// enqueue is request-table admission proper, past the fault stage.
func (t *TxPath) enqueue(flow uint16, rpcID uint64, data []byte) bool {
	depth := len(t.table) - len(t.free)
	if !dataplane.Admit(depth, len(t.table)) {
		if !dataplane.DropRefused(dataplane.TxTableOverflow) {
			t.Stalls.Inc()
		}
		return false
	}
	// Same mark decision (and same depth expression) as the admission
	// check: a request admitted at or past half table occupancy is stamped
	// so the congestion signal rides its slot through the scheduler.
	marked := dataplane.Mark(depth, len(t.table))
	var hint uint8
	if marked {
		hint = dataplane.OccupancyHint(depth, len(t.table))
		t.Marked.Inc()
	}
	slot := t.free[0]
	t.free = t.free[1:]
	t.table[slot] = RequestSlot{Valid: true, RPCID: rpcID, Flow: flow, Data: data, Marked: marked, Hint: hint}
	t.fifos[flow] = append(t.fifos[flow], slot)
	t.Enqueued.Inc()
	return true
}

// FlowDepth returns the number of queued references for a flow.
func (t *TxPath) FlowDepth(flow uint16) int { return len(t.fifos[flow]) }

// ScheduleBatch implements the flow scheduler: starting from a round-robin
// cursor it picks the first flow FIFO holding at least a full batch (or, if
// force is set, any non-empty FIFO — used by the soft-configured batch
// timeout to flush under low load), dequeues up to one batch of references,
// reads the payloads out of the request table, and returns the slots to the
// free FIFO. It returns the batch and the source flow, or ok=false when
// nothing is eligible.
func (t *TxPath) ScheduleBatch(force bool) (data [][]byte, flow uint16, ok bool) {
	for i := 0; i < t.nflows; i++ {
		f := (t.rrCursor + i) % t.nflows
		depth := len(t.fifos[f])
		if depth == 0 {
			continue
		}
		if depth < t.batch && !force {
			continue
		}
		n := t.batch
		if depth < n {
			n = depth
		}
		refs := t.fifos[f][:n]
		t.fifos[f] = t.fifos[f][n:]
		out := make([][]byte, 0, n)
		for _, slot := range refs {
			s := &t.table[slot]
			if !s.Valid {
				panic("nicmodel: scheduled reference to invalid slot")
			}
			out = append(out, s.Data)
			s.Valid = false
			t.free = append(t.free, slot)
		}
		t.rrCursor = (f + 1) % t.nflows
		t.Scheduled.Add(uint64(n))
		return out, uint16(f), true
	}
	return nil, 0, false
}
