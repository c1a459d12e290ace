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
		c.Record(id, Span{Service: "Flight", Queue: 50, Work: 1000})
		c.Record(id, Span{Service: "Baggage", Queue: 10, Work: 100})
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

func TestRetentionCap(t *testing.T) {
	c := NewCollector(3)
	for i := 0; i < 10; i++ {
		id := c.Begin()
		c.Record(id, Span{Service: "S", Work: 1})
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
		c.Record(id, Span{Service: "S", Work: 1})
	}
	if got := c.dropped; got != 7 {
		t.Fatalf("dropped = %d, want 7", got)
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
	if got := u.dropped; got != 0 {
		t.Fatalf("unbounded collector dropped = %d, want 0", got)
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
				c.Record(id, Span{Service: "X", Work: 5})
			}
		}()
	}
	wg.Wait()
	rep := c.Analyze()
	if rep.Profiles[0].Spans != 1600 {
		t.Fatalf("spans = %d, want 1600", rep.Profiles[0].Spans)
	}
}
