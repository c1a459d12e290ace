package nicmodel

import (
	"testing"

	"dagger/internal/faults"
	"dagger/internal/metrics"
)

func allOf(t *testing.T, rates faults.Rates) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(faults.Config{Seed: 1, Rates: rates})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// Verdict semantics are pinned once, in internal/faults' Stage test; what
// stays RX-specific is the ready signal — a batch completed by any of the
// admissions one faulted Deliver or flush makes must be reported, and fault
// losses must not report one.
func TestRxPathFaultReadySignal(t *testing.T) {
	rx := NewRxPath(2, 64)
	rx.SetFaultInjector(allOf(t, faults.Rates{Drop: faults.RateDenominator}))
	if rx.Deliver(RxEntry{RPCID: 1}) || rx.Received.Load() != 0 {
		t.Fatal("a dropped entry was buffered or reported a ready batch")
	}
	// A duplicate's two admissions fill the batch of 2 in one Deliver.
	rx.SetFaultInjector(allOf(t, faults.Rates{Duplicate: faults.RateDenominator}))
	if !rx.Deliver(RxEntry{RPCID: 2}) {
		t.Fatal("duplicate pair completed a batch but Deliver reported not ready")
	}
	if got := rx.Complete(0); len(got) != 2 || got[0].RPCID != 2 || got[1].RPCID != 2 {
		t.Fatalf("completed %v, want both copies of rpc 2", got)
	}
	// Held entries complete their batch on flush, and on uninstall.
	rx.SetFaultInjector(allOf(t, faults.Rates{Delay: faults.RateDenominator}))
	if rx.Deliver(RxEntry{RPCID: 3}) || rx.Deliver(RxEntry{RPCID: 4}) {
		t.Fatal("held entries reported a ready batch")
	}
	if !rx.FlushFaults() {
		t.Fatal("flush of two held entries did not make the batch pending")
	}
	rx.Deliver(RxEntry{RPCID: 5})
	rx.SetFaultInjector(nil)
	if rx.Buffered() != 1 || rx.Pending() != 2 {
		t.Fatalf("after uninstall: buffered %d pending %d, want the released entry buffered behind the flushed batch",
			rx.Buffered(), rx.Pending())
	}
	reg := metrics.New()
	rx.DescribeMetrics(reg)
	snap := reg.Snapshot()
	if snap.Value("fault.dropped") != 1 || snap.Value("fault.duplicated") != 1 || snap.Value("fault.delayed") != 3 {
		t.Fatalf("stage counters not exported under fault.*: %v", snap.Filter("fault"))
	}
}

// A held TX request whose release finds the table full is re-held for the
// next admission — the table's overflow policy is backpressure, not loss.
func TestTxPathFaultReleaseBackpressure(t *testing.T) {
	tx := NewTxPath(1, 1) // 1-entry table
	tx.SetFaultInjector(allOf(t, faults.Rates{Delay: faults.RateDenominator}))
	if !tx.Enqueue(0, 1, nil) {
		t.Fatal("held enqueue reported refusal")
	}
	tx.SetFaultInjector(nil)
	// Request 1 released into the only slot; fill checks below go through the
	// plain path.
	if tx.FlowDepth(0) != 1 {
		t.Fatalf("released request not tabled: depth %d", tx.FlowDepth(0))
	}

	// Now hold a request while the table is full: its release must re-hold
	// rather than drop.
	tx.SetFaultInjector(allOf(t, faults.Rates{Delay: faults.RateDenominator}))
	if !tx.Enqueue(0, 2, nil) {
		t.Fatal("held enqueue reported refusal")
	}
	// Age it to due by pushing more admissions through the stage (each is
	// itself held, but only request 2 ever comes due first).
	for i := 0; i < 8; i++ {
		tx.Enqueue(0, uint64(10+i), nil)
	}
	if tx.FlowDepth(0) != 1 {
		t.Fatalf("full table admitted a release: depth %d", tx.FlowDepth(0))
	}
	// Drain the table; the re-held request lands on the next admission-driven
	// release (flush).
	if _, _, ok := tx.ScheduleBatch(true); !ok {
		t.Fatal("schedule of tabled request failed")
	}
	tx.FlushFaults()
	if tx.FlowDepth(0) == 0 {
		t.Fatal("re-held request was lost instead of released after space freed")
	}
}
