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

	"dagger/internal/metrics"
	"dagger/internal/sim"
)

// Span is one tier visit within a request.
type Span struct {
	Service string
	Start   sim.Time // arrival at the tier
	Queue   sim.Time // time waiting for a thread/core
	Work    sim.Time // handler execution time
	End     sim.Time // response sent
	// Marked records that the request reached this tier carrying an
	// ECN-style congestion mark (stamped by a queue on its path), so the
	// profile can attribute queue pressure to the services that see it.
	Marked bool
	// ConnMiss records that the request's connection lookup missed the
	// NIC's near-memory connection cache (§4.2) and paid the host-lookup
	// penalty, so the profile can spot services whose connection working
	// set outgrew the cache.
	ConnMiss bool
}

// Total returns the span's wall time.
func (s Span) Total() sim.Time { return s.End - s.Start }

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

	// corruptDrops counts requests the traced server discarded because their
	// header failed checksum verification (wire.ErrBadChecksum) — corruption
	// never produces a trace (the request is unattributable), so the profile
	// carries the count instead, keeping a corrupted-traffic profile from
	// being mistaken for a clean one.
	corruptDrops metrics.Counter
}

// NewCollector creates a collector retaining at most capTraces traces
// (0 = unbounded).
func NewCollector(capTraces int) *Collector {
	return &Collector{cap: capTraces}
}

// DescribeMetrics registers read-time gauges over the collector's state:
// traces begun, retained, and dropped at the retention cap. The collector's
// own fields stay mutex-guarded; the gauges take the lock at snapshot time.
func (c *Collector) DescribeMetrics(reg *metrics.Registry) {
	reg.Func("trace.begun", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.next)
	})
	reg.Func("trace.retained", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.traces))
	})
	reg.Func("trace.dropped", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.dropped)
	})
	reg.RegisterCounter("trace.corruptdrop", &c.corruptDrops)
}

// NoteCorruptDrop records one request discarded at the server for a failed
// header checksum. Lock-free (the counter is atomic): it sits on the server's
// frame-drop path.
func (c *Collector) NoteCorruptDrop() { c.corruptDrops.Inc() }

// CorruptDrops returns the number of checksum-failure drops recorded.
func (c *Collector) CorruptDrops() uint64 { return c.corruptDrops.Load() }

// Begin starts a new trace and returns its id. Traces beyond the retention
// cap are not retained (lightweight by design) but are counted: Dropped
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

// Dropped returns the number of traces begun after the retention cap filled
// and therefore not retained.
func (c *Collector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
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
	// Marked counts spans whose request arrived congestion-marked.
	Marked uint64
	// ConnMisses counts spans whose request missed the connection cache.
	ConnMisses uint64
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

// MarkedFrac returns the fraction of this service's spans that arrived
// congestion-marked.
func (p ServiceProfile) MarkedFrac() float64 {
	if p.Spans == 0 {
		return 0
	}
	return float64(p.Marked) / float64(p.Spans)
}

// ConnMissFrac returns the fraction of this service's spans whose request
// missed the connection cache.
func (p ServiceProfile) ConnMissFrac() float64 {
	if p.Spans == 0 {
		return 0
	}
	return float64(p.ConnMisses) / float64(p.Spans)
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
		out += fmt.Sprintf("  %-18s spans=%-7d busy(mean)=%-10v queue(mean)=%v",
			p.Service, p.Spans, p.MeanBusy(), p.MeanQueue())
		if p.Marked > 0 {
			out += fmt.Sprintf(" marked=%.0f%%", 100*p.MarkedFrac())
		}
		if p.ConnMisses > 0 {
			out += fmt.Sprintf(" conn-miss=%.0f%%", 100*p.ConnMissFrac())
		}
		out += "\n"
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
			if sp.Marked {
				p.Marked++
			}
			if sp.ConnMiss {
				p.ConnMisses++
			}
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
