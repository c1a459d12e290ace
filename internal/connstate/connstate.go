// Package connstate is the single source of truth for Dagger's connection
// state (§4.2): the bounded, direct-mapped, near-memory connection cache with
// a host-DRAM backing store behind it. The NIC holds the hot working set of
// connection entries in on-chip memory; entries displaced by direct-mapped
// conflicts fall back to host memory and pay one coherent-bus round trip
// (HostLookupPenaltyNanos) when they are next looked up, at which point they
// are re-cached. That geometry — slot indexing, tag match, conflict eviction,
// re-cache on miss — plus the open → active → close lifecycle and its
// hit/miss/eviction accounting live here, and only here.
//
// Like internal/dataplane, everything in this package is pure policy: the
// same call sequence produces the same decisions, byte for byte, whether the
// caller is the functional goroutine stack (fabric.SoftNIC steering real
// frames) or the discrete-event timing stack (nicmodel.ConnectionManager
// charging sim.Time penalties). Cross-substrate parity tests pin that
// equivalence. Nothing here allocates on the lookup path, reads clocks, or
// consults global state; adapters own locking and time.
package connstate

import (
	"errors"
	"fmt"

	"dagger/internal/metrics"
)

// MaxCachedConnections is the FPGA BRAM-bounded connection cache limit
// quoted in §4.2 (~153K connections for the available on-chip memory).
const MaxCachedConnections = 153 * 1024

// HostLookupPenaltyNanos is the extra latency of fetching a connection entry
// from host memory on a connection cache miss: one coherent bus round trip.
// The timing substrate charges it as sim.Time; the functional substrate may
// inject it through a per-miss hook.
const HostLookupPenaltyNanos int64 = 800

// Sentinel lifecycle errors. Adapters wrap them (with %w) to add their own
// context, so errors.Is works across layers.
var (
	// ErrAlreadyOpen reports an Open of a key that is already open.
	ErrAlreadyOpen = errors.New("connstate: connection already open")
	// ErrNotOpen reports a Lookup or Close of a key that is not open.
	ErrNotOpen = errors.New("connstate: connection not open")
)

// Key packs a (source address, connection id) pair into the cache key. The
// connection id occupies the low 32 bits, so the direct-mapped slot index —
// the key's LSBs — is decided by the connection id alone and is therefore
// identical across substrates whether or not a caller distinguishes sources;
// the source address participates only in the full-width tag match.
func Key(srcAddr, connID uint32) uint64 {
	return uint64(srcAddr)<<32 | uint64(connID)
}

// Stats is the cache's monitor-counter block.
type Stats struct {
	Hits      uint64 // lookups served from the cache
	Misses    uint64 // lookups served from the backing store (then re-cached)
	Evictions uint64 // valid entries displaced by a conflicting open or re-cache
	Opens     uint64 // successful Opens
	Closes    uint64 // successful Closes
}

// DescribeMetrics registers the conn.* gauge family into reg over read, an
// adapter's (locked, if need be) view of its cache's Stats and OpenCount.
// Both substrates register through here, so the family's names, kinds and
// derivations are snapshot-comparable by construction.
func DescribeMetrics(reg *metrics.Registry, read func() (st Stats, open int)) {
	gauge := func(name string, pick func(st Stats, open int) uint64) {
		reg.Func(name, func() int64 { return int64(pick(read())) })
	}
	gauge("conn.hits", func(st Stats, _ int) uint64 { return st.Hits })
	gauge("conn.misses", func(st Stats, _ int) uint64 { return st.Misses })
	gauge("conn.evictions", func(st Stats, _ int) uint64 { return st.Evictions })
	gauge("conn.opens", func(st Stats, _ int) uint64 { return st.Opens })
	gauge("conn.closes", func(st Stats, _ int) uint64 { return st.Closes })
	gauge("conn.open", func(_ Stats, open int) uint64 { return uint64(open) })
	// Every steering lookup is either a cache hit or a backing-store miss.
	gauge("conn.lookups", func(st Stats, _ int) uint64 { return st.Hits + st.Misses })
}

// Cache is the direct-mapped connection cache plus its host backing store.
// V is the per-connection state an adapter steers by (a flow id for the
// fabric, a ConnTuple for the NIC model). The zero value is not usable;
// construct with New. Not safe for concurrent use: adapters lock.
type Cache[V any] struct {
	size  int
	mask  uint32
	valid []bool
	keys  []uint64
	vals  []V

	// backing holds every open connection (host DRAM); the cache holds the
	// subset that survived direct-mapped conflicts.
	backing map[uint64]V

	stats Stats
}

// New creates a cache of size entries, rounded up to a power of two. Size is
// a hard-configuration parameter chosen per application (§4.2); it must be
// positive and at most MaxCachedConnections.
func New[V any](size int) *Cache[V] {
	if size <= 0 {
		panic("connstate: connection cache size must be positive")
	}
	if size > MaxCachedConnections {
		panic(fmt.Sprintf("connstate: connection cache %d exceeds BRAM limit %d", size, MaxCachedConnections))
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Cache[V]{
		size:    n,
		mask:    uint32(n - 1),
		valid:   make([]bool, n),
		keys:    make([]uint64, n),
		vals:    make([]V, n),
		backing: make(map[uint64]V),
	}
}

// slot returns the direct-mapped slot for key: the key's LSBs, i.e. the
// connection id's LSBs under the Key packing.
func (c *Cache[V]) slot(key uint64) uint32 { return uint32(key) & c.mask }

// Open registers a connection. The entry is written to both the backing
// store and its direct-mapped cache slot; a valid conflicting entry is
// displaced to the backing store (it already lives there) and counted as an
// eviction. Opening an already-open key returns ErrAlreadyOpen.
func (c *Cache[V]) Open(key uint64, v V) error {
	if _, exists := c.backing[key]; exists {
		return ErrAlreadyOpen
	}
	i := c.slot(key)
	if c.valid[i] && c.keys[i] == key {
		return ErrAlreadyOpen
	}
	if c.valid[i] {
		c.stats.Evictions++
	}
	c.stats.Opens++
	c.backing[key] = v
	c.valid[i] = true
	c.keys[i] = key
	c.vals[i] = v
	return nil
}

// Close removes a connection from the backing store, invalidating its cache
// slot if the slot still holds it. Closing a key that is not open returns
// ErrNotOpen.
func (c *Cache[V]) Close(key uint64) error {
	if _, exists := c.backing[key]; !exists {
		return ErrNotOpen
	}
	c.stats.Closes++
	delete(c.backing, key)
	i := c.slot(key)
	if c.valid[i] && c.keys[i] == key {
		c.valid[i] = false
	}
	return nil
}

// Lookup returns the connection's state and whether the cache served it. On
// a hit the slot is untouched. On a miss the entry is fetched from the
// backing store and re-cached, displacing (and counting as evicted) any
// valid conflicting occupant; the caller owes the host-lookup penalty. A key
// that is not open returns ErrNotOpen.
func (c *Cache[V]) Lookup(key uint64) (V, bool, error) {
	i := c.slot(key)
	if c.valid[i] && c.keys[i] == key {
		c.stats.Hits++
		return c.vals[i], true, nil
	}
	v, ok := c.backing[key]
	if !ok {
		var zero V
		return zero, false, ErrNotOpen
	}
	c.stats.Misses++
	if c.valid[i] {
		c.stats.Evictions++
	}
	c.valid[i] = true
	c.keys[i] = key
	c.vals[i] = v
	return v, false, nil
}

// Reset drops every connection — cache slots and backing store — without
// touching the monitor counters. Adapters call it when a reconfiguration
// (e.g. a balancer swap) invalidates all steering state.
func (c *Cache[V]) Reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.backing = make(map[uint64]V)
}

// OpenCount returns the number of open connections (cached or not).
func (c *Cache[V]) OpenCount() int { return len(c.backing) }

// Stats returns a copy of the monitor counters.
func (c *Cache[V]) Stats() Stats { return c.stats }

// HitRate returns the fraction of lookups served from the cache.
func (c *Cache[V]) HitRate() float64 {
	total := c.stats.Hits + c.stats.Misses
	if total == 0 {
		return 0
	}
	return float64(c.stats.Hits) / float64(total)
}
