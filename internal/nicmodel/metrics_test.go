package nicmodel

import (
	"slices"
	"sync"
	"testing"

	"dagger/internal/metrics"
	"dagger/internal/sim"
)

// TestNICMetricsRegistry pins the timing NIC's exact sample set and checks
// each sample against the block it reads, so a counter that nothing
// increments cannot be registered unnoticed.
func TestNICMetricsRegistry(t *testing.T) {
	eng := sim.NewEngine()
	n, err := NewNIC(eng, HardConfig{ConnCacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	n.Monitor.Sheds.Add(2)
	if err := n.CM.Open(1, ConnTuple{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.CM.Lookup(1); err != nil {
		t.Fatal(err)
	}
	n.HCC.Access(0)
	n.HCC.Access(0)

	s := n.Metrics().Snapshot()
	var names []string
	for _, sm := range s.Samples {
		names = append(names, sm.Name)
	}
	want := []string{
		"conn.closes", "conn.evictions", "conn.hits", "conn.lookups", "conn.misses", "conn.open", "conn.opens",
		"hcc.hits", "hcc.misses", "shed.expired",
	}
	if !slices.Equal(names, want) {
		t.Fatalf("samples = %v, want %v", names, want)
	}
	checks := map[string]int64{
		"shed.expired": 2,
		"conn.opens":   1,
		"conn.hits":    1,
		"conn.lookups": 1,
		"conn.open":    1,
		"hcc.hits":     1,
		"hcc.misses":   1,
	}
	for name, want := range checks {
		if got := s.Value(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestCountersSnapshotRace is the mixed atomic/plain access regression test:
// before the metrics migration, RxPath/HCC counters were plain uint64s, so a
// registry snapshot concurrent with the model would race. Run under -race
// this pins the fix.
func TestCountersSnapshotRace(t *testing.T) {
	rx := NewRxPath(2, 8)
	hcc := NewHCC()
	reg := metrics.New()
	rx.DescribeMetrics(reg)
	hcc.DescribeMetrics(reg)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			rx.Deliver(RxEntry{RPCID: uint64(i)})
			rx.Complete(0)
			hcc.Access(uint64(i) * 64)
		}
	}()
	for i := 0; i < 200; i++ {
		s := reg.Snapshot()
		if s.Value("rx.received") < 0 {
			t.Fatal("impossible counter")
		}
		_ = hcc.HitRate()
	}
	wg.Wait()

	if got := reg.Snapshot().Value("rx.received"); got != int64(rx.Received.Load()) {
		t.Fatalf("snapshot disagrees with counter at quiescence: %d vs %d", got, rx.Received.Load())
	}
}
