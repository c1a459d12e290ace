package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestCollectAndAnalyze(t *testing.T) {
	c := NewCollector(0)
	for i := 0; i < 10; i++ {
		id := c.Begin()
		c.Record(id, Span{Service: "Flight", Start: 0, Queue: 50, Work: 1000, End: 1050})
		c.Record(id, Span{Service: "Baggage", Start: 0, Queue: 10, Work: 100, End: 110})
	}
	rep := c.Analyze()
	if rep.Bottleneck() != "Flight" {
		t.Fatalf("bottleneck = %q, want Flight", rep.Bottleneck())
	}
	if len(rep.Profiles) != 2 {
		t.Fatalf("profiles = %d", len(rep.Profiles))
	}
	flight := rep.Profiles[0]
	if flight.Spans != 10 || flight.MeanBusy() != 1000 || flight.MeanQueue() != 50 {
		t.Fatalf("flight profile = %+v", flight)
	}
	if !strings.Contains(rep.String(), "Flight") {
		t.Fatal("report text missing service")
	}
}

// TestMarkedAggregation pins the congestion-mark profile: marked spans are
// counted per service, surfaced as a fraction, and rendered only for
// services that actually saw marks.
func TestMarkedAggregation(t *testing.T) {
	c := NewCollector(0)
	for i := 0; i < 8; i++ {
		id := c.Begin()
		// Flight sees pressure on half its visits; Baggage never does.
		c.Record(id, Span{Service: "Flight", Work: 1000, Queue: 50, Marked: i%2 == 0})
		c.Record(id, Span{Service: "Baggage", Work: 100, Queue: 10})
	}
	rep := c.Analyze()
	var flight, baggage ServiceProfile
	for _, p := range rep.Profiles {
		switch p.Service {
		case "Flight":
			flight = p
		case "Baggage":
			baggage = p
		}
	}
	if flight.Marked != 4 || flight.MarkedFrac() != 0.5 {
		t.Fatalf("flight marked = %d (frac %.2f), want 4 (0.50)", flight.Marked, flight.MarkedFrac())
	}
	if baggage.Marked != 0 || baggage.MarkedFrac() != 0 {
		t.Fatalf("baggage marked = %d, want 0", baggage.Marked)
	}
	text := rep.String()
	if !strings.Contains(text, "marked=50%") {
		t.Fatalf("report missing marked fraction:\n%s", text)
	}
	if strings.Count(text, "marked=") != 1 {
		t.Fatalf("unmarked service should not render a marked column:\n%s", text)
	}
}

// TestConnMissAggregation pins the connection-cache-miss profile, mirroring
// the congestion-mark one: missed spans are counted per service, surfaced as
// a fraction, and rendered only for services that actually saw misses.
func TestConnMissAggregation(t *testing.T) {
	c := NewCollector(0)
	for i := 0; i < 8; i++ {
		id := c.Begin()
		// Flight's connection working set outgrew the cache on a quarter of
		// its visits; Baggage's always fits.
		c.Record(id, Span{Service: "Flight", Work: 1000, Queue: 50, ConnMiss: i%4 == 0})
		c.Record(id, Span{Service: "Baggage", Work: 100, Queue: 10})
	}
	rep := c.Analyze()
	var flight, baggage ServiceProfile
	for _, p := range rep.Profiles {
		switch p.Service {
		case "Flight":
			flight = p
		case "Baggage":
			baggage = p
		}
	}
	if flight.ConnMisses != 2 || flight.ConnMissFrac() != 0.25 {
		t.Fatalf("flight conn misses = %d (frac %.2f), want 2 (0.25)", flight.ConnMisses, flight.ConnMissFrac())
	}
	if baggage.ConnMisses != 0 || baggage.ConnMissFrac() != 0 {
		t.Fatalf("baggage conn misses = %d, want 0", baggage.ConnMisses)
	}
	text := rep.String()
	if !strings.Contains(text, "conn-miss=25%") {
		t.Fatalf("report missing conn-miss fraction:\n%s", text)
	}
	if strings.Count(text, "conn-miss=") != 1 {
		t.Fatalf("miss-free service should not render a conn-miss column:\n%s", text)
	}
}

func TestSpanTotal(t *testing.T) {
	sp := Span{Start: 100, End: 350}
	if sp.Total() != 250 {
		t.Fatalf("total = %v", sp.Total())
	}
}

func TestRetentionCap(t *testing.T) {
	c := NewCollector(3)
	for i := 0; i < 10; i++ {
		id := c.Begin()
		c.Record(id, Span{Service: "S", Work: 1, End: 1})
	}
	if traces, _ := c.Snapshot(); len(traces) != 3 {
		t.Fatalf("retained %d traces, want 3", len(traces))
	}
	// Records for dropped traces are ignored, not panicking.
	c.Record(999, Span{Service: "S"})
}

func TestDroppedCounter(t *testing.T) {
	c := NewCollector(3)
	for i := 0; i < 10; i++ {
		id := c.Begin()
		c.Record(id, Span{Service: "S", Work: 1, End: 1})
	}
	if got := c.Dropped(); got != 7 {
		t.Fatalf("Dropped() = %d, want 7", got)
	}
	traces, dropped := c.Snapshot()
	if len(traces) != 3 || dropped != 7 {
		t.Fatalf("Snapshot() = %d traces, %d dropped; want 3, 7", len(traces), dropped)
	}
	rep := c.Analyze()
	if rep.Dropped != 7 {
		t.Fatalf("Report.Dropped = %d, want 7", rep.Dropped)
	}
	if !strings.Contains(rep.String(), "7 traces dropped") {
		t.Fatalf("report does not surface the truncation:\n%s", rep.String())
	}

	// An unbounded collector never drops.
	u := NewCollector(0)
	for i := 0; i < 10; i++ {
		u.Begin()
	}
	if got := u.Dropped(); got != 0 {
		t.Fatalf("unbounded collector Dropped() = %d, want 0", got)
	}
	if rep := u.Analyze(); strings.Contains(rep.String(), "truncated") {
		t.Fatal("unbounded report mentions truncation")
	}
}

func TestEmptyReport(t *testing.T) {
	c := NewCollector(0)
	rep := c.Analyze()
	if rep.Bottleneck() != "" {
		t.Fatal("empty collector has no bottleneck")
	}
}

func TestConcurrentCollection(t *testing.T) {
	c := NewCollector(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := c.Begin()
				c.Record(id, Span{Service: "X", Work: 5, End: 5})
			}
		}()
	}
	wg.Wait()
	rep := c.Analyze()
	if rep.Profiles[0].Spans != 1600 {
		t.Fatalf("spans = %d, want 1600", rep.Profiles[0].Spans)
	}
}
