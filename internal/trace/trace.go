// Package trace is the lightweight request tracing system of §5.7: the
// paper builds one to profile the Flight Registration service and discover
// that the long-running Flight tier blocks dispatch threads. Traces are
// per-request span lists (service, queue wait, service time); the analyzer
// aggregates them into per-service occupancy and points at the bottleneck.
package trace

import (
	"fmt"
	"sort"
	"sync"

	"dagger/internal/sim"
)

// Span is one tier visit within a request.
type Span struct {
	Service string
	Queue   sim.Time // time waiting for a thread/core
	Work    sim.Time // handler execution time
}

// Trace is one end-to-end request.
type Trace struct {
	ID    uint64
	Spans []Span
}

// Collector accumulates traces; safe for concurrent use.
type Collector struct {
	mu      sync.Mutex
	next    uint64
	traces  []Trace
	cap     int
	dropped uint64
}

// NewCollector creates a collector retaining at most capTraces traces
// (0 = unbounded).
func NewCollector(capTraces int) *Collector {
	return &Collector{cap: capTraces}
}

// Begin starts a new trace and returns its id. Traces beyond the retention
// cap are not retained (lightweight by design) but are counted: Snapshot
// reports how many, so a truncated profile is never mistaken for a complete
// one.
func (c *Collector) Begin() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	id := c.next
	if c.cap == 0 || len(c.traces) < c.cap {
		c.traces = append(c.traces, Trace{ID: id})
	} else {
		c.dropped++
	}
	return id
}

// Record appends a span to trace id. Spans for traces beyond the retention
// cap are dropped silently (lightweight by design).
func (c *Collector) Record(id uint64, sp Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := int(id) - 1
	if idx < 0 || idx >= len(c.traces) {
		return
	}
	c.traces[idx].Spans = append(c.traces[idx].Spans, sp)
}

// Snapshot returns the collected traces together with the count of traces
// dropped at the retention cap.
func (c *Collector) Snapshot() ([]Trace, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Trace, len(c.traces))
	copy(out, c.traces)
	return out, c.dropped
}

// ServiceProfile aggregates one service's spans.
type ServiceProfile struct {
	Service    string
	Spans      uint64
	TotalBusy  sim.Time
	TotalQueue sim.Time
}

// MeanBusy returns the mean handler time.
func (p ServiceProfile) MeanBusy() sim.Time {
	if p.Spans == 0 {
		return 0
	}
	return p.TotalBusy / sim.Time(p.Spans)
}

// MeanQueue returns the mean queueing time.
func (p ServiceProfile) MeanQueue() sim.Time {
	if p.Spans == 0 {
		return 0
	}
	return p.TotalQueue / sim.Time(p.Spans)
}

// Report is the analyzer output.
type Report struct {
	Profiles []ServiceProfile // sorted by TotalBusy descending
	// Dropped is the number of traces the collector began but did not retain
	// (retention cap); nonzero means the profile is computed from a prefix
	// of the request population.
	Dropped uint64
}

// Bottleneck returns the service with the largest aggregate busy time.
func (r Report) Bottleneck() string {
	if len(r.Profiles) == 0 {
		return ""
	}
	return r.Profiles[0].Service
}

// String renders the report.
func (r Report) String() string {
	out := "service profile (by total busy time):\n"
	for _, p := range r.Profiles {
		out += fmt.Sprintf("  %-18s spans=%-7d busy(mean)=%-10v queue(mean)=%v\n",
			p.Service, p.Spans, p.MeanBusy(), p.MeanQueue())
	}
	if r.Dropped > 0 {
		out += fmt.Sprintf("  (truncated: %d traces dropped at the retention cap)\n", r.Dropped)
	}
	return out
}

// Analyze aggregates the collected traces into a bottleneck report.
func (c *Collector) Analyze() Report {
	traces, dropped := c.Snapshot()
	byService := map[string]*ServiceProfile{}
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			p := byService[sp.Service]
			if p == nil {
				p = &ServiceProfile{Service: sp.Service}
				byService[p.Service] = p
			}
			p.Spans++
			p.TotalBusy += sp.Work
			p.TotalQueue += sp.Queue
		}
	}
	rep := Report{Dropped: dropped}
	for _, p := range byService {
		rep.Profiles = append(rep.Profiles, *p)
	}
	sort.Slice(rep.Profiles, func(i, j int) bool {
		return rep.Profiles[i].TotalBusy > rep.Profiles[j].TotalBusy
	})
	return rep
}
