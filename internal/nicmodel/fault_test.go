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
	if len(rx.buf) != 1 || rx.Pending() != 2 {
		t.Fatalf("after uninstall: buffered %d pending %d, want the released entry buffered behind the flushed batch",
			len(rx.buf), rx.Pending())
	}
	reg := metrics.New()
	rx.DescribeMetrics(reg)
	snap := reg.Snapshot()
	if snap.Value("fault.dropped") != 1 || snap.Value("fault.duplicated") != 1 || snap.Value("fault.delayed") != 3 {
		t.Fatalf("stage counters not exported under fault.*: %v", snap.Filter("fault"))
	}
}
