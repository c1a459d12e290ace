package nicmodel

import (
	"dagger/internal/dataplane"
	"dagger/internal/faults"
	"dagger/internal/metrics"
)

// The RX path (Figure 8, §4.4): the NIC's TX FSM places newly received RPC
// objects into per-flow RX buffers, which accumulate a batch of B requests
// before handing them to the completion queue (so the RX buffer size is
// B x the mean RPC size), and asynchronously returns freed entries during
// bookkeeping.

// RxEntry is one received RPC waiting for completion-queue handoff.
type RxEntry struct {
	RPCID uint64
	Data  []byte
	// Marked/Hint carry the ECN-style congestion stamp applied at RX-buffer
	// admission when occupancy was at or past the dataplane mark threshold
	// (the same dataplane.Mark decision the functional fabric stamps into
	// wire headers).
	Marked bool
	Hint   uint8
}

// RxPath models one flow's RX buffer and its batching into the completion
// queue.
type RxPath struct {
	batch   int
	buf     []RxEntry
	cap     int
	pending []RxEntry

	// Chaos plane: the shared fault stage (faults.Stage) ahead of buffer
	// admission, idle until SetFaultInjector.
	faults *faults.Stage[RxEntry]
	// ready records whether any admission since Deliver last
	// cleared it completed a batch — one faulted Deliver can make several.
	ready bool

	// Counters are metrics.Counter (atomic) so a registry snapshot taken
	// from another goroutine never races the delivery path.
	Received  metrics.Counter
	Delivered metrics.Counter
	Dropped   metrics.Counter
	Batches   metrics.Counter
	Marked    metrics.Counter // entries congestion-marked at admission
}

// rxSink is the RX buffer as the fault stage sees it. Entries are values:
// there is no storage to recycle, a copy is the value itself, and the
// modelled header-checksum check catches every flip at admission — counted
// and discarded, never queued (the functional fabric verifies
// wire.VerifyChecksum for real at the same point).
type rxSink struct{ r *RxPath }

func (s rxSink) Admit(e RxEntry) bool       { return s.r.admit(e) }
func (rxSink) Discard(RxEntry)              {}
func (rxSink) Clone(e RxEntry) RxEntry      { return e }
func (rxSink) Corrupt(RxEntry, uint32) bool { return true }

// DescribeMetrics registers the RX path's counters into reg. The
// cross-substrate names (mark.rx.stamped and drop.rx.ring) are gauges here,
// as on the functional fabric, where they aggregate across flow rings — the
// kinds must match for whole-snapshot parity diffs.
func (r *RxPath) DescribeMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("rx.received", &r.Received)
	reg.RegisterCounter("rx.delivered", &r.Delivered)
	reg.RegisterCounter("rx.batches", &r.Batches)
	r.faults.Describe(reg, "fault.")
	reg.Func("drop.rx.ring", func() int64 { return int64(r.Dropped.Load()) })
	reg.Func("mark.rx.stamped", func() int64 { return int64(r.Marked.Load()) })
}

// NewRxPath creates an RX path with batching width B and a buffer of
// capEntries entries (0 sizes it at 4x the batch, the paper's B=4 sweet
// spot times a safety factor).
func NewRxPath(batch, capEntries int) *RxPath {
	if batch <= 0 {
		panic("nicmodel: rx batch must be positive")
	}
	if capEntries <= 0 {
		capEntries = 4 * batch
	}
	if capEntries < batch {
		capEntries = batch
	}
	r := &RxPath{batch: batch, cap: capEntries}
	r.faults = faults.NewStage[RxEntry](rxSink{r: r})
	return r
}

// SetFaultInjector installs a deterministic fault stage (internal/faults)
// ahead of RX-buffer admission; nil uninstalls it. Reconfiguring releases
// any entries a previous stage was still holding, in hold order.
func (r *RxPath) SetFaultInjector(inj *faults.Injector) { r.faults.SetInjector(inj) }

// Deliver places one received RPC into the RX buffer, through the fault
// stage when an injector is installed. When a full batch has accumulated, it
// is moved to the pending completion set and ready=true is returned.
// Admission is the dataplane queue policy: a full buffer drops the RPC
// (best-effort delivery, as at the functional fabric's rings).
func (r *RxPath) Deliver(e RxEntry) (ready bool) {
	r.ready = false
	r.faults.Deliver(e)
	return r.ready
}

// admit is RX-buffer admission proper, past the fault stage: duplicate
// copies and released held entries come through here without drawing fresh
// verdicts. It reports whether the entry was admitted, and sets r.ready if
// that completed a batch.
func (r *RxPath) admit(e RxEntry) bool {
	depth := len(r.buf) + len(r.pending)
	if !dataplane.Admit(depth, r.cap) {
		r.Dropped.Inc()
		return false
	}
	// Same mark decision (and same depth expression) as the admission
	// check: an entry admitted at or past half occupancy carries the
	// congestion stamp to the completion queue and onward to the client.
	if dataplane.Mark(depth, r.cap) {
		e.Marked = true
		e.Hint = dataplane.OccupancyHint(depth, r.cap)
		r.Marked.Inc()
	}
	r.buf = append(r.buf, e)
	r.Received.Inc()
	if len(r.buf) >= r.batch {
		r.pending = append(r.pending, r.buf...)
		r.buf = r.buf[:0]
		r.Batches.Inc()
		r.ready = true
	}
	return true
}

// Complete drains up to max pending entries to the completion queue
// (all if max <= 0), freeing their buffer slots.
func (r *RxPath) Complete(max int) []RxEntry {
	n := len(r.pending)
	if max > 0 && max < n {
		n = max
	}
	out := make([]RxEntry, n)
	copy(out, r.pending[:n])
	r.pending = r.pending[n:]
	r.Delivered.Add(uint64(n))
	return out
}
