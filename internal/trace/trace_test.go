package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestCollectAndAnalyze(t *testing.T) {
	c := NewCollector()
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

func TestEmptyReport(t *testing.T) {
	c := NewCollector()
	rep := c.Analyze()
	if rep.Bottleneck() != "" {
		t.Fatal("empty collector has no bottleneck")
	}
}

func TestConcurrentCollection(t *testing.T) {
	c := NewCollector()
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
