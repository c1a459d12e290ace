package transport

import (
	"sync/atomic"

	"dagger/internal/fabric"
	"dagger/internal/metrics"
	"dagger/internal/wire"
)

// Bridge connects a local fabric to remote peers over a PacketConn: it
// installs itself as the fabric's gateway for non-local destinations and
// injects inbound frames into the fabric with the usual NIC-side steering.
// One Bridge per host; the route table is the cross-host extension of the
// ToR model's static switching table.
type Bridge struct {
	fab    *fabric.Fabric
	conn   PacketConn
	routes *RouteTable
	closed atomic.Bool

	Forwarded   metrics.Counter
	Injected    metrics.Counter
	InjectErr   metrics.Counter
	NoPeer      metrics.Counter
	DeadLetters metrics.Counter
}

// NewBridge attaches a bridge to fab over conn using routes. The bridge
// takes ownership of the conn's receive handler. A Reliable conn additionally
// gets the bridge's dead-letter hook: requests the protocol abandons come back
// to the local fabric as synthetic FlagDead responses, so the waiting client
// fails fast with ErrPeerDead instead of burning its full timeout.
func NewBridge(fab *fabric.Fabric, conn PacketConn, routes *RouteTable) *Bridge {
	b := &Bridge{fab: fab, conn: conn, routes: routes}
	conn.SetHandler(b.onFrame)
	if rl, ok := conn.(*Reliable); ok {
		rl.SetDeadLetter(b.onDeadLetter)
	}
	fab.SetGateway(b.forward)
	return b
}

// onDeadLetter receives frames the reliable protocol gave up delivering. For
// abandoned requests it synthesizes a dead-peer response toward the caller;
// abandoned responses are dropped (the remote caller's own transport is
// responsible for its side's liveness).
func (b *Bridge) onDeadLetter(_ string, pkt []byte) {
	if b.closed.Load() {
		return
	}
	h, err := wire.ParseHeader(pkt)
	if err != nil || h.Kind != wire.KindRequest {
		return
	}
	b.DeadLetters.Add(1)
	m := &wire.Message{Header: wire.Header{
		Kind: wire.KindResponse, Flags: wire.FlagDead,
		ConnID: h.ConnID, RPCID: h.RPCID, FlowID: h.FlowID, FnID: h.FnID,
		SrcAddr: h.DstAddr, DstAddr: h.SrcAddr,
	}}
	buf := b.fab.Buffers().Get(wire.CacheLineSize)
	frame, err := wire.MarshalAppend(buf[:0], m)
	if err != nil {
		b.fab.Buffers().Put(buf)
		return
	}
	if err := b.fab.Inject(frame); err != nil {
		b.InjectErr.Add(1)
	}
}

func (b *Bridge) forward(dstAddr uint32, frame []byte) error {
	if b.closed.Load() {
		return ErrBridgeClose
	}
	ep, ok := b.routes.Resolve(dstAddr)
	if !ok {
		b.NoPeer.Add(1)
		return ErrNoPeer
	}
	b.Forwarded.Add(1)
	return b.conn.Send(ep, frame)
}

func (b *Bridge) onFrame(pkt []byte, _ string) {
	if b.closed.Load() {
		return
	}
	// pkt is borrowed from the conn, but Inject takes ownership of its
	// argument — so copy into a pooled frame buffer first.
	frame := b.fab.Buffers().Get(len(pkt))
	copy(frame, pkt)
	if err := b.fab.Inject(frame); err != nil {
		b.InjectErr.Add(1)
		return
	}
	b.Injected.Add(1)
}

// Close detaches the bridge and closes its conn.
func (b *Bridge) Close() error {
	if b.closed.Swap(true) {
		return nil
	}
	b.fab.SetGateway(nil)
	return b.conn.Close()
}
