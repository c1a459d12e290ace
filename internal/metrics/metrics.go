// Package metrics is the unified telemetry plane for both Dagger substrates:
// one deterministic, allocation-free registry of typed counter, gauge, and
// histogram handles with hierarchical dotted names. The paper's entire
// evaluation (§5, Figs. 10-15) is driven by per-stage NIC counters — cache
// hits, queue occupancies, sheds, congestion marks — and every layer of this
// reproduction (fabric.SoftNIC, nicmodel.NIC, the core client/server, the
// transports, the buffer pools, the trace collector) registers its counters
// here instead of growing ad-hoc accounting, so experiments read one
// Snapshot per component instead of hand-plumbing getter tuples.
//
// Design constraints, in order:
//
//   - Hot-path updates (Counter.Inc, Counter.Add, Gauge.Set,
//     Histogram.Observe) are single atomic operations: no locks, no
//     allocation, no map lookups. Handles are resolved once at registration
//     time and then held by the owning component.
//   - Snapshots are deterministic: samples are stable-sorted by name, and
//     nothing in the package consults maps in iteration order, the wall
//     clock, or unseeded randomness, so two substrates replaying the same
//     trace produce byte-identical snapshots (the cross-substrate parity
//     tests diff whole snapshots).
//   - Registration is the slow path. It takes a lock, may allocate, and
//     panics on programmer error (duplicate or malformed names) rather than
//     returning errors every call site would have to ignore.
//
// Naming scheme: lowercase dotted hierarchies, `family.event` (conn.hits,
// shed.expired, mark.rx.stamped). Families shared by both substrates —
// conn.*, shed.*, mark.* — must use identical names on both sides; that is
// what makes whole-snapshot parity diffs possible.
//
// Snapshots taken while traffic is flowing are per-sample atomic but not
// globally consistent (counter A may include an event whose companion in
// counter B is not yet visible); experiments snapshot at quiescence.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dagger/internal/stats"
)

// Kind discriminates sample types in snapshots and exports.
type Kind string

// Sample kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing event counter. The zero value is
// ready to use, so components embed Counter fields directly where an
// atomic.Uint64 used to live — the Add/Load method set is intentionally
// identical — and register them with Registry.RegisterCounter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed level (queue depth, window size). The
// zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket log-bucketed histogram sharing the
// internal/stats geometry (stats.BucketIndex / stats.BucketLow). Unlike
// stats.Histogram it never grows: all buckets covering the non-negative
// int64 range are preallocated at construction, so Observe is a pure
// index computation plus three atomic adds — allocation-free and safe for
// concurrent use on the data path.
type Histogram struct {
	counts []atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Int64
}

// NewHistogram returns a histogram at stats.SubBits precision; memory is
// ~8 B per bucket (≈15 KB).
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, stats.NumBuckets())}
}

// Observe records one value. Negative values clamp to zero (the shared
// stats geometry's convention).
func (h *Histogram) Observe(v int64) {
	h.counts[stats.BucketIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// snapshotBuckets collects the non-empty buckets in ascending value order.
func (h *Histogram) snapshotBuckets() []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			out = append(out, Bucket{Low: stats.BucketLow(i), Count: n})
		}
	}
	return out
}

// entry is one registered metric. Exactly one of the handle fields is set.
type entry struct {
	name string
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   func() int64
}

// Registry holds a component's metrics. Registration is locked and may
// allocate; the handles it returns are then updated without touching the
// registry again. A Registry is safe for concurrent registration and
// snapshotting, but components conventionally register everything at
// construction time.
type Registry struct {
	mu      sync.Mutex
	entries []entry
	names   map[string]bool
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// validName enforces the naming scheme: non-empty, lowercase dotted
// hierarchies over [a-z0-9._-].
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		ch := name[i]
		switch {
		case ch >= 'a' && ch <= 'z':
		case ch >= '0' && ch <= '9':
		case ch == '.' || ch == '_' || ch == '-':
		default:
			return false
		}
	}
	return true
}

func (r *Registry) add(e entry) {
	if !validName(e.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q (want lowercase dotted [a-z0-9._-])", e.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[e.name] {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", e.name))
	}
	r.names[e.name] = true
	r.entries = append(r.entries, e)
}

// Counter creates, registers, and returns a counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	return r.RegisterCounter(name, c)
}

// RegisterCounter registers an existing counter (typically an embedded
// struct field) under name and returns it.
func (r *Registry) RegisterCounter(name string, c *Counter) *Counter {
	if c == nil {
		panic("metrics: RegisterCounter with nil counter")
	}
	r.add(entry{name: name, kind: KindCounter, c: c})
	return c
}

// Gauge creates, registers, and returns a gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g := &Gauge{}
	return r.RegisterGauge(name, g)
}

// RegisterGauge registers an existing gauge under name and returns it.
func (r *Registry) RegisterGauge(name string, g *Gauge) *Gauge {
	if g == nil {
		panic("metrics: RegisterGauge with nil gauge")
	}
	r.add(entry{name: name, kind: KindGauge, g: g})
	return g
}

// Histogram creates, registers, and returns a histogram at the default
// precision.
func (r *Registry) Histogram(name string) *Histogram {
	return r.RegisterHistogram(name, NewHistogram())
}

// RegisterHistogram registers an existing histogram under name and returns
// it.
func (r *Registry) RegisterHistogram(name string, h *Histogram) *Histogram {
	if h == nil {
		panic("metrics: RegisterHistogram with nil histogram")
	}
	r.add(entry{name: name, kind: KindHistogram, h: h})
	return h
}

// Func registers a read-time computed gauge: fn is invoked at every
// Snapshot. Use it for levels derived from existing state (cache stats,
// ring occupancy) so the owning structure needs no duplicate counter; fn
// must be safe to call from the snapshotting goroutine.
func (r *Registry) Func(name string, fn func() int64) {
	if fn == nil {
		panic("metrics: Func with nil function")
	}
	r.add(entry{name: name, kind: KindGauge, fn: fn})
}

// Snapshot captures every registered metric, stable-sorted by name. The
// result is self-contained: mutating the registry or its handles afterwards
// does not change an existing snapshot.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	entries := make([]entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()

	samples := make([]Sample, 0, len(entries))
	for _, e := range entries {
		s := Sample{Name: e.name, Kind: e.kind}
		switch {
		case e.c != nil:
			s.Value = int64(e.c.Load())
		case e.g != nil:
			s.Value = e.g.Load()
		case e.fn != nil:
			s.Value = e.fn()
		case e.h != nil:
			s.Buckets = e.h.snapshotBuckets()
			// Derive the count from the captured buckets so Value ==
			// sum(Buckets) holds within one snapshot even if observations
			// land between the loads.
			var total uint64
			for _, b := range s.Buckets {
				total += b.Count
			}
			s.Value = int64(total)
			s.Sum = e.h.Sum()
		}
		samples = append(samples, s)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
	return Snapshot{Samples: samples}
}
