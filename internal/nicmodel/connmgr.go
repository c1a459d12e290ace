// Package nicmodel implements the Dagger NIC's hardware blocks at the
// structural level of Figures 6 and 8: the connection manager's
// direct-mapped 1W3R cache, the load balancers, the RX-path batching, the
// host coherent cache (HCC), the packet monitor, and the RPC unit's pipeline
// timing. The experiment harness composes these blocks with the interconnect
// models into a full RPC pipeline, and models TX batching (Fig. 9B) and soft
// reconfiguration (§4.1) itself: experiments.batcher groups submissions into
// CCI-P batches, and experiments.ResolveAutoBatch picks the batch width.
package nicmodel

import (
	"errors"
	"fmt"

	"dagger/internal/connstate"
	"dagger/internal/dataplane"
	"dagger/internal/sim"
)

// ConnTuple is the connection table entry (§4.2): connection IDs map onto
// <src_flow, dest_addr, load_balancer>.
type ConnTuple struct {
	SrcFlow      uint16 // flow receiving this connection's requests
	DestAddr     uint32 // destination host
	LoadBalancer dataplane.Scheme
}

// ConnectionManager models the CM block: a direct-mapped connection cache
// split into three independently indexed tables so that three agents — the
// RPC outgoing flow, the incoming flow, and the CM itself — can access it in
// the same cycle (1W3R, §4.2). Entries evicted by conflicts fall back to
// host memory over the interconnect, with a miss penalty.
//
// The cache geometry, lifecycle, and accounting are owned by
// internal/connstate; this type is the timing adapter that converts cache
// verdicts into sim.Time penalties.
type ConnectionManager struct {
	cache *connstate.Cache[ConnTuple]
}

// MaxCachedConnections is the FPGA BRAM-bounded connection cache limit
// quoted in §4.2 (~153K connections for the available on-chip memory).
const MaxCachedConnections = connstate.MaxCachedConnections

// HostLookupPenalty is the extra latency of fetching a connection tuple
// from host memory on a connection cache miss (one coherent bus round
// trip).
const HostLookupPenalty sim.Time = sim.Time(connstate.HostLookupPenaltyNanos)

// NewConnectionManager creates a CM with a direct-mapped cache of size
// entries (rounded up to a power of two). Size is a hard-configuration
// parameter chosen per application (§4.2).
func NewConnectionManager(size int) *ConnectionManager {
	return &ConnectionManager{cache: connstate.New[ConnTuple](size)}
}

// Open registers a connection. The entry is written to the cache slot
// indexed by the connection ID's LSBs, displacing any conflicting entry to
// the host backing store.
func (cm *ConnectionManager) Open(id uint32, t ConnTuple) error {
	if err := cm.cache.Open(uint64(id), t); err != nil {
		return fmt.Errorf("nicmodel: connection %d already open: %w", id, err)
	}
	return nil
}

// Close removes a connection from the cache and backing store.
func (cm *ConnectionManager) Close(id uint32) error {
	if err := cm.cache.Close(uint64(id)); err != nil {
		return fmt.Errorf("nicmodel: connection %d not open: %w", id, err)
	}
	return nil
}

// Lookup returns the connection tuple and the lookup latency penalty:
// zero on a cache hit, HostLookupPenalty on a miss that is served from host
// memory (the missing entry is then re-cached).
func (cm *ConnectionManager) Lookup(id uint32) (ConnTuple, sim.Time, error) {
	t, hit, err := cm.cache.Lookup(uint64(id))
	if err != nil {
		if errors.Is(err, connstate.ErrNotOpen) {
			err = fmt.Errorf("nicmodel: connection %d not open: %w", id, err)
		}
		return ConnTuple{}, 0, err
	}
	if hit {
		return t, 0, nil
	}
	return t, HostLookupPenalty, nil
}

// OpenCount returns the number of open connections (cached or not).
func (cm *ConnectionManager) OpenCount() int { return cm.cache.OpenCount() }

// Stats returns the cache's monitor counters (hits, misses, evictions,
// opens, closes).
func (cm *ConnectionManager) Stats() connstate.Stats { return cm.cache.Stats() }

// HitRate returns the fraction of lookups served from the cache.
func (cm *ConnectionManager) HitRate() float64 { return cm.cache.HitRate() }
