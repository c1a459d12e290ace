// Package transport extends Dagger's functional stack across hosts: it
// implements the Transport layer of Figure 6 — a UDP/IP datagram path
// between NICs — plus the Protocol unit the paper leaves as future work
// (§4.5: "we plan to extend Dagger with reliable transports"): sequence
// numbers, retransmission and duplicate suppression layered over the lossy
// datagram path, with explicit per-packet acknowledgements that ride as ack
// lists on reverse data. A standalone ack is sent only for a duplicate, a
// full list, a packet flagged ack-now (the sender's window is half full, or
// the packet waited in its queue), or at the retransmission tick, so no ack
// waits longer than RTO/4.
//
// A Bridge attaches to a fabric.Fabric as its gateway: frames addressed to
// NICs that are not local are forwarded to the peer host owning that
// address, where the remote Bridge injects them into its own fabric with
// the usual NIC-side steering.
package transport

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Errors returned by transports.
var (
	ErrNoPeer      = errors.New("transport: no peer owns destination address")
	ErrBridgeClose = errors.New("transport: bridge closed")
)

// Endpoint names a PacketConn peer: an opaque string, host:port for UDP.
type Endpoint = string

// PacketConn is the datagram substrate a Bridge runs over: real UDP in
// production (NewUDPConn), an in-memory lossy pair in tests. Implementations
// must be safe for concurrent Send.
type PacketConn interface {
	// Send transmits one datagram to a peer.
	Send(endpoint Endpoint, pkt []byte) error
	// SetHandler installs the receive callback; it is invoked once per
	// inbound datagram with the sender's endpoint. Must be called before
	// traffic flows. The pkt slice is borrowed: it is only valid for the
	// duration of the callback, and a handler that retains it must copy
	// (this lets implementations reuse one receive buffer).
	SetHandler(func(pkt []byte, from Endpoint))
	// LocalEndpoint returns this conn's own endpoint name.
	LocalEndpoint() Endpoint
	// Close stops the conn; the handler will not fire afterwards.
	Close() error
}

// Route maps a Dagger NIC address range to a peer endpoint.
type Route struct {
	// Lo and Hi bound the NIC addresses (inclusive) owned by the peer.
	Lo, Hi uint32
	// Endpoint is the peer's PacketConn endpoint.
	Endpoint Endpoint
}

// RouteTable resolves destination NIC addresses to peer endpoints — the
// static switching table of the paper's ToR model, stretched across hosts.
// Routes are kept sorted by Lo and must not overlap, so Resolve is a
// lock-free, allocation-free binary search (it runs on the per-frame
// forwarding path); Add copies the table, which is fine for the rare
// control-plane write.
type RouteTable struct {
	mu     sync.Mutex              // serializes writers
	routes atomic.Pointer[[]Route] // sorted by Lo, non-overlapping
}

// NewRouteTable builds a table from routes.
func NewRouteTable(routes ...Route) *RouteTable {
	t := &RouteTable{}
	for _, r := range routes {
		t.Add(r)
	}
	return t
}

// Add inserts a route, keeping the table sorted. It panics on an inverted
// range or one that overlaps an existing route (one address must resolve to
// exactly one peer).
func (t *RouteTable) Add(r Route) {
	if r.Hi < r.Lo {
		panic(fmt.Sprintf("transport: route range [%d, %d] inverted", r.Lo, r.Hi))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var cur []Route
	if p := t.routes.Load(); p != nil {
		cur = *p
	}
	i := sort.Search(len(cur), func(j int) bool { return cur[j].Lo > r.Lo })
	if i > 0 && cur[i-1].Hi >= r.Lo {
		panic(fmt.Sprintf("transport: route [%d, %d] overlaps [%d, %d]", r.Lo, r.Hi, cur[i-1].Lo, cur[i-1].Hi))
	}
	if i < len(cur) && cur[i].Lo <= r.Hi {
		panic(fmt.Sprintf("transport: route [%d, %d] overlaps [%d, %d]", r.Lo, r.Hi, cur[i].Lo, cur[i].Hi))
	}
	next := make([]Route, 0, len(cur)+1)
	next = append(next, cur[:i]...)
	next = append(next, r)
	next = append(next, cur[i:]...)
	t.routes.Store(&next)
}

// Resolve returns the endpoint owning addr: a binary search for the route
// with the greatest Lo not above addr, then an upper-bound check.
func (t *RouteTable) Resolve(addr uint32) (Endpoint, bool) {
	p := t.routes.Load()
	if p == nil {
		return "", false
	}
	routes := *p
	lo, hi := 0, len(routes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if routes[mid].Lo <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && addr <= routes[lo-1].Hi {
		return routes[lo-1].Endpoint, true
	}
	return "", false
}
