package transport

import (
	"maps"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"dagger/internal/metrics"
)

// maxDatagram bounds one UDP payload: a full Dagger frame plus the protocol
// header fits comfortably (frames are at most wire.MaxPayload + one line).
const maxDatagram = 20 * 1024

// UDPConn is the production PacketConn: one UDP socket per host.
//
// Endpoints are resolved once and cached, and a datagram's sender is reported
// under the endpoint string this side resolved to its address (so a peer
// routed as "localhost:P" is heard from as "localhost:P", and its acks match
// the session Send opened); a sender never resolved here is reported as the
// canonical host:port of its address.
type UDPConn struct {
	conn    *net.UDPConn
	mu      sync.RWMutex
	handler func([]byte, string)
	closed  atomic.Bool
	wg      sync.WaitGroup

	addrs cowMap[string, netip.AddrPort] // endpoint → address
	names cowMap[netip.AddrPort, string] // address → endpoint

	Sent     metrics.Counter
	Received metrics.Counter
}

// DescribeMetrics registers the socket's datagram counters into reg.
func (u *UDPConn) DescribeMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("udp.sent", &u.Sent)
	reg.RegisterCounter("udp.received", &u.Received)
}

// NewUDPConn binds a UDP socket on addr ("127.0.0.1:0" for an ephemeral
// port) and starts its receive loop.
func NewUDPConn(addr string) (*UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	u := &UDPConn{conn: conn}
	u.wg.Add(1)
	go u.recvLoop()
	return u, nil
}

func (u *UDPConn) recvLoop() {
	defer u.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := u.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		u.Received.Add(1)
		u.mu.RLock()
		h := u.handler
		u.mu.RUnlock()
		if h != nil {
			// The receive buffer is reused across datagrams; handlers get
			// a borrowed view per the PacketConn contract and copy if they
			// retain it.
			h(buf[:n], u.name(from))
		}
	}
}

// name returns the endpoint string a datagram from ap is reported under.
func (u *UDPConn) name(ap netip.AddrPort) string {
	ap = unmap(ap)
	if s, ok := u.names.load(ap); ok {
		return s
	}
	s := ap.String()
	u.names.store(ap, s)
	return s
}

// unmap strips the IPv4-in-IPv6 form a dual-stack socket reports, so one
// peer has one address whichever way it was learned.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Send transmits one datagram to endpoint (host:port).
func (u *UDPConn) Send(endpoint Endpoint, pkt []byte) error {
	if u.closed.Load() {
		return ErrBridgeClose
	}
	ap, ok := u.addrs.load(endpoint)
	if !ok {
		ua, err := net.ResolveUDPAddr("udp", endpoint)
		if err != nil {
			return err
		}
		ap = unmap(ua.AddrPort())
		u.names.store(ap, endpoint)
		u.addrs.store(endpoint, ap)
	}
	if _, err := u.conn.WriteToUDPAddrPort(pkt, ap); err != nil {
		return err
	}
	u.Sent.Add(1)
	return nil
}

// SetHandler installs the receive callback.
func (u *UDPConn) SetHandler(h func([]byte, Endpoint)) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.handler = h
}

// LocalEndpoint returns the bound host:port.
func (u *UDPConn) LocalEndpoint() Endpoint { return u.conn.LocalAddr().String() }

// Close shuts the socket and waits for the receive loop.
func (u *UDPConn) Close() error {
	if u.closed.Swap(true) {
		return nil
	}
	err := u.conn.Close()
	u.wg.Wait()
	return err
}

// maxCached bounds each endpoint cache, so a flood of distinct source
// addresses cannot grow it without limit; past it, lookups miss and the
// caller recomputes.
const maxCached = 1024

// cowMap is a copy-on-write map: a read is one atomic load and a map lookup,
// with no lock and no allocation; a write copies the map under mu. It suits
// caches read per datagram and written once per peer.
type cowMap[K comparable, V any] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[K]V]
}

func (c *cowMap[K, V]) load(k K) (v V, ok bool) {
	if m := c.m.Load(); m != nil {
		v, ok = (*m)[k]
	}
	return v, ok
}

// store adds or replaces k's entry, unless the map is full.
func (c *cowMap[K, V]) store(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next map[K]V
	if m := c.m.Load(); m != nil {
		if _, ok := (*m)[k]; !ok && len(*m) >= maxCached {
			return
		}
		next = maps.Clone(*m)
	} else {
		next = make(map[K]V, 1)
	}
	next[k] = v
	c.m.Store(&next)
}
