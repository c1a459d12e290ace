package fabric

import (
	"testing"
)

// TestNICMetricsMatchGetters drives traffic through a NIC pair and checks
// every registry-backed sample against the monitor counters and the
// connection cache's exact tallies.
func TestNICMetricsMatchGetters(t *testing.T) {
	_, a, b := twoNICs(t)
	for i := 0; i < 40; i++ {
		// A handful of connections so the conn cache sees opens and hits.
		if err := a.Send(req(1, 2, uint32(i%4+1), 0, "payload")); err != nil {
			t.Fatal(err)
		}
	}
	for _, nic := range []*SoftNIC{a, b} {
		s := nic.Metrics().Snapshot()
		var opens, hits int64
		if nic == b {
			// b steered all 40 requests: four first-contact opens, then hits.
			opens, hits = 4, 36
		}
		checks := map[string]int64{
			"rpc.in":          int64(nic.RPCsIn.Load()),
			"rpc.out":         int64(nic.RPCsOut.Load()),
			"bytes.in":        int64(nic.BytesIn.Load()),
			"bytes.out":       int64(nic.BytesOut.Load()),
			"drop.ring":       int64(nic.Drops.Load()),
			"mark.rx.stamped": 0,
			"conn.hits":       hits,
			"conn.misses":     0,
			"conn.evictions":  0,
			"conn.opens":      opens,
			"conn.closes":     0,
			"conn.open":       opens,
		}
		for name, want := range checks {
			if got := s.Value(name); got != want {
				t.Errorf("nic %d: %s = %d, want %d", nic.Addr(), name, got, want)
			}
		}
		if _, ok := s.Get("frame.bytes"); !ok {
			t.Errorf("nic %d: frame.bytes histogram not registered", nic.Addr())
		}
	}

	// The sender's frame-size histogram saw every send, each one frame of
	// WireSize bytes.
	fb, _ := a.Metrics().Snapshot().Get("frame.bytes")
	if fb.Value != int64(a.RPCsOut.Load()) {
		t.Fatalf("frame.bytes count %d != rpc.out %d", fb.Value, a.RPCsOut.Load())
	}
}

// TestFlowMarkDropMetrics fills a depth-4 ring without consuming: two frames
// are admitted clean and the other six marked, since Flow.deliver stamps a
// frame before pushing it; four of those six find the ring full and drop.
func TestFlowMarkDropMetrics(t *testing.T) {
	f := NewFabric()
	a, err := f.CreateNIC(1, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.CreateNIC(2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		m := req(1, 2, 1, 0, "x")
		m.RPCID = uint64(i + 1)
		_ = a.Send(m) // overflow drops are expected
	}
	s := b.Metrics().Snapshot()
	if got := s.Value("mark.rx.stamped"); got != 6 {
		t.Fatalf("mark.rx.stamped = %d, want 6", got)
	}
	if got := s.Value("drop.rx.ring"); got != 4 {
		t.Fatalf("drop.rx.ring = %d, want 4", got)
	}
	if got := s.Value("drop.ring"); got != int64(b.Drops.Load()) {
		t.Fatalf("drop.ring = %d, NIC counter %d", got, b.Drops.Load())
	}
}
