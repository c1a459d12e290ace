package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"dagger/internal/stats"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("rpc.in")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("queue.depth")
	g.Set(7)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestRegisterExisting(t *testing.T) {
	var c Counter
	c.Add(3)
	r := New()
	if got := r.RegisterCounter("pre.counted", &c); got != &c {
		t.Fatalf("RegisterCounter did not return the same handle")
	}
	if got := r.Snapshot().Value("pre.counted"); got != 3 {
		t.Fatalf("registered counter value = %d, want 3", got)
	}
}

func TestNameValidation(t *testing.T) {
	r := New()
	r.Counter("ok.name-1_x")
	for _, bad := range []string{"", "Upper.case", "spa ce", "uni.cöde"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q: want panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
	// Duplicate across kinds must panic too.
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("duplicate name: want panic")
			}
		}()
		r.Gauge("ok.name-1_x")
	}()
}

func TestFuncGauge(t *testing.T) {
	r := New()
	level := int64(0)
	r.Func("derived.level", func() int64 { return level })
	level = 42
	if got := r.Snapshot().Value("derived.level"); got != 42 {
		t.Fatalf("func gauge = %d, want 42", got)
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := New()
	r.Counter("z.last")
	r.Counter("a.first")
	r.Counter("m.middle")
	s := r.Snapshot()
	names := make([]string, len(s.Samples))
	for i, sm := range s.Samples {
		names[i] = sm.Name
	}
	want := []string{"a.first", "m.middle", "z.last"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order = %v, want %v", names, want)
		}
	}
}

func TestSnapshotSelfContained(t *testing.T) {
	r := New()
	c := r.Counter("c")
	h := r.Histogram("h")
	c.Inc()
	h.Observe(10)
	s := r.Snapshot()
	c.Add(100)
	h.Observe(10)
	if got := s.Value("c"); got != 1 {
		t.Fatalf("snapshot counter mutated to %d", got)
	}
	if sm, _ := s.Get("h"); sm.Value != 1 || sm.Buckets[0].Count != 1 {
		t.Fatalf("snapshot histogram mutated: %+v", sm)
	}
}

func TestHistogramGeometryMatchesStats(t *testing.T) {
	h := NewHistogram()
	ref := stats.NewHistogram()
	vals := []int64{0, 1, 31, 32, 63, 64, 100, 4096, 1 << 20, math.MaxInt64, -5}
	for _, v := range vals {
		h.Observe(v)
		ref.Record(v)
	}
	if h.total.Load() != ref.Count() {
		t.Fatalf("count mismatch: %d vs %d", h.total.Load(), ref.Count())
	}
	for _, p := range []float64{50, 90, 99} {
		got := quantileFromBuckets(h.snapshotBuckets(), p)
		// stats.Percentile clamps to [min, max] while Quantile returns the
		// raw bucket low, so compare at bucket granularity.
		want := ref.Percentile(p)
		if stats.BucketIndex(got) != stats.BucketIndex(want) {
			t.Fatalf("p%.0f = %d, want bucket of %d", p, got, want)
		}
	}
	// Exact bucket boundary values must round-trip exactly.
	for _, v := range []int64{64, 256, 1024, 4096} {
		i := stats.BucketIndex(v)
		if low := stats.BucketLow(i); low != v {
			t.Fatalf("boundary %d maps to bucket low %d", v, low)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	if h.total.Load() != 100 {
		t.Fatalf("count = %d", h.total.Load())
	}
	p50 := quantileFromBuckets(h.snapshotBuckets(), 50)
	if p50 < 40_000 || p50 > 60_000 {
		t.Fatalf("p50 = %d, want ≈50000", p50)
	}
	if h.Sum() != 5050*1000 {
		t.Fatalf("sum = %d", h.Sum())
	}
}

func TestFilter(t *testing.T) {
	r := New()
	r.Counter("conn.hits").Inc()
	r.Counter("conn.misses")
	r.Counter("connect.other").Inc()
	r.Counter("shed.expired").Inc()
	f := r.Snapshot().Filter("conn")
	if len(f.Samples) != 2 {
		t.Fatalf("Filter(conn) = %d samples, want 2 (no connect.*): %+v", len(f.Samples), f.Samples)
	}
}

func TestDelta(t *testing.T) {
	r := New()
	c := r.Counter("c")
	h := r.Histogram("h")
	c.Add(2)
	h.Observe(64)
	before := r.Snapshot()
	c.Add(3)
	h.Observe(64)
	h.Observe(4096)
	after := r.Snapshot()
	d := after.Delta(before)
	if got := d.Value("c"); got != 3 {
		t.Fatalf("delta counter = %d, want 3", got)
	}
	hs, _ := d.Get("h")
	if hs.Value != 2 || len(hs.Buckets) != 2 {
		t.Fatalf("delta histogram = %+v, want 2 obs in 2 buckets", hs)
	}
}

func TestMergeAndDiff(t *testing.T) {
	a := New()
	a.Counter("conn.hits").Add(5)
	b := New()
	b.Counter("conn.hits").Add(5)
	sa, sb := a.Snapshot(), b.Snapshot()
	if d := Diff(sa, sb); d != "" {
		t.Fatalf("identical snapshots diff: %s", d)
	}
	b2 := New()
	b2.Counter("conn.hits").Add(6)
	if d := Diff(sa, b2.Snapshot()); !strings.Contains(d, "conn.hits") {
		t.Fatalf("diff missed changed counter: %q", d)
	}
	x, y := New(), New()
	x.Counter("x.conn.hits").Add(5)
	y.Counter("y.conn.hits").Add(5)
	m := Merge(y.Snapshot(), x.Snapshot())
	if len(m.Samples) != 2 || m.Samples[0].Name != "x.conn.hits" {
		t.Fatalf("merge = %+v", m.Samples)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("Merge with duplicate names: want panic")
			}
		}()
		Merge(sa, sb)
	}()
}

func TestWriteTextJSON(t *testing.T) {
	r := New()
	r.Counter("rpc.in").Add(3)
	r.Histogram("lat").Observe(100)
	buf, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf, &round); err != nil {
		t.Fatalf("JSON round-trip: %v\n%s", err, buf)
	}
	if Diff(r.Snapshot(), round) != "" {
		t.Fatalf("JSON round-trip changed snapshot:\n%s", Diff(r.Snapshot(), round))
	}
	// Byte stability: encoding the same snapshot twice is identical.
	buf2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatalf("JSON export not byte-stable")
	}
}

// TestMetricsZeroAlloc pins the hot-path contract: a warm Counter.Inc,
// Counter.Add, Gauge.Set, and Histogram.Observe perform zero allocations.
func TestMetricsZeroAlloc(t *testing.T) {
	r := New()
	c := r.Counter("hot.counter")
	g := r.Gauge("hot.gauge")
	h := r.Histogram("hot.hist")
	// Warm up.
	c.Inc()
	g.Set(1)
	h.Observe(123)

	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(9) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f/op, want 0", n)
	}
	v := int64(0)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v += 997 }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op, want 0", n)
	}
}

// TestSnapshotConcurrent races hot-path writers against snapshotting; run
// under -race this is the regression test for mixed atomic/plain access.
func TestSnapshotConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(i) * 1024)
			}
		}(i)
	}
	for i := 0; i < 100; i++ {
		s := r.Snapshot()
		if sm, ok := s.Get("h"); ok {
			var sum uint64
			for _, b := range sm.Buckets {
				sum += b.Count
			}
			if int64(sum) != sm.Value {
				t.Fatalf("histogram Value %d != bucket sum %d", sm.Value, sum)
			}
		}
	}
	close(stop)
	wg.Wait()
}
