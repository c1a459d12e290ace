package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dagger/internal/core"
	"dagger/internal/fabric"
	"dagger/internal/faults"
	"dagger/internal/transport"
)

// The functional halves of the chaos and connscale experiments: the same
// policies the timing stack models, driven through real NICs, goroutines and
// the reliable transport. Everything printed from here is a count the seeded
// fault draw or the shared connstate geometry fixes, so no function in this
// file reads the clock; time only enters as the client's call timeouts.

const (
	funcClientAddr = 0x0A000001
	funcServerAddr = 0x0A000002

	fnFuncConnScale = 3
	fnFuncChaos     = 4
	// funcConnScaleCache sizes the server NIC's near-memory connection cache
	// (C) small enough that the spill phase's working set overruns it without
	// needing thousands of connections.
	funcConnScaleCache = 32
	// funcChaosFaultPPM is the per-class fault rate of the in-fabric phase:
	// 1% each of drop, duplicate, delay, reorder, and corrupt — the hardening
	// target rate the chaos gates are written against.
	funcChaosFaultPPM = 10_000
	// funcChaosTimeout bounds each in-fabric call: a dropped request costs
	// this much and no more, which is what the no-hangs gate means.
	funcChaosTimeout = 50 * time.Millisecond
	// funcChaosLoss is the lossy-transport phase's datagram loss rate; the
	// reliable protocol must recover every call under it.
	funcChaosLoss = 0.01
	// funcChaosSeed fixes the fault draw and the link-loss draw.
	funcChaosSeed = 0xC4A05
	// funcDeadPeerTimeout is the dead-peer call's timeout. The dead-letter
	// verdict must beat it: a call that reaches it ends in ErrTimeout and
	// fails the gate, because fail-fast did not engage.
	funcDeadPeerTimeout = 5 * time.Second
)

// funcRig is the stack every functional phase runs on: a one-flow client NIC
// and a one-flow server NIC (one flow = one dispatch thread = one core,
// matching the timing-stack models), a started server with one echo handler,
// a client, and one open connection to the server.
type funcRig struct {
	serverNIC *fabric.SoftNIC
	srv       *core.RpcThreadedServer
	cli       *core.RpcClient
	conn      uint32
}

// newRig builds a rig with the client NIC on cliFab and the server NIC on
// srvFab — the same fabric in process, two bridged ones for the cross-host
// chaos phase. connCache is the server NIC's connection cache capacity (0 =
// the fabric default).
func newRig(cliFab, srvFab *fabric.Fabric, fn uint16, name string, connCache int) (*funcRig, error) {
	clientNIC, err := cliFab.CreateNIC(funcClientAddr, 1, fabric.DefaultRingDepth)
	if err != nil {
		return nil, err
	}
	serverNIC, err := srvFab.CreateNICConns(funcServerAddr, 1, fabric.DefaultRingDepth, connCache)
	if err != nil {
		return nil, err
	}
	srv := core.NewRpcThreadedServer(serverNIC, core.ServerConfig{})
	if err := srv.Register(fn, name, func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	}); err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	cli, err := core.NewRpcClient(clientNIC, 0)
	if err != nil {
		srv.Stop()
		return nil, err
	}
	conn, err := cli.OpenConnection(funcServerAddr)
	if err != nil {
		cli.Close()
		srv.Stop()
		return nil, err
	}
	return &funcRig{serverNIC: serverNIC, srv: srv, cli: cli, conn: conn}, nil
}

// close tears the rig down client first.
func (r *funcRig) close() {
	r.cli.Close()
	r.srv.Stop()
}

// funcConnScaleResult is the functional connscale run's outcome. Every field
// is fixed by the direct-mapped cache geometry shared with the timing stack
// via internal/connstate.
type funcConnScaleResult struct {
	// Fit phase: FitConns (= C/2) connections, conflict-free by
	// construction, so every post-open lookup hits.
	FitConns  int
	FitCalls  int
	FitMisses uint64
	// Spill phase: SpillConns (= 2C) connections, so every slot hosts two
	// alternating ids and steady-state lookups miss.
	SpillConns  int
	SpillCalls  int
	SpillMisses uint64
	// FinalOpen is the server NIC's open-connection population after the
	// churn phase closed everything; nonzero means close propagation leaked.
	FinalOpen int
}

// runFuncConnScale drives a real client/server NIC pair where the server's
// bounded connection cache (capacity C) steers requests, making rounds
// round-robin passes per phase. The working set first fits the cache (C/2
// connections: zero misses), then outgrows it (2C connections: steady-state
// lookups all miss, each stamped on the wire and echoed to the client), and
// finally closes everything (the table must drain — boundedness under
// churn). Gate violations come back as errors.
func runFuncConnScale(rounds int) (*funcConnScaleResult, error) {
	// The rig's single client flow keeps minted connection ids dense (1, 2,
	// 3, …): a multi-flow client strides ids by its flow count, covering only
	// a fraction of the server cache's direct-mapped slots.
	fab := fabric.NewFabric()
	r, err := newRig(fab, fab, fnFuncConnScale, "connscale.echo", funcConnScaleCache)
	if err != nil {
		return nil, err
	}
	defer r.close()
	cli, serverNIC := r.cli, r.serverNIC

	res := &funcConnScaleResult{
		FitConns:   funcConnScaleCache / 2,
		SpillConns: 2 * funcConnScaleCache,
	}
	// grow opens connections until the working set ids holds k of them.
	grow := func(ids []uint32, k int) ([]uint32, error) {
		for len(ids) < k {
			id, err := cli.OpenConnection(funcServerAddr)
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		return ids, nil
	}
	payload := []byte("connscale")
	// callRR makes rounds passes over ids and returns the number of calls.
	callRR := func(ids []uint32) (int, error) {
		for r := 0; r < rounds; r++ {
			for _, id := range ids {
				resp, err := cli.CallConn(id, fnFuncConnScale, payload)
				if err != nil {
					return 0, fmt.Errorf("connscale: conn %d: %w", id, err)
				}
				cli.Release(resp)
			}
		}
		return rounds * len(ids), nil
	}

	// Fit phase: C/2 dense ids occupy distinct slots, so after each
	// connection's first-contact open every lookup hits.
	fitIDs, err := grow([]uint32{r.conn}, res.FitConns)
	if err != nil {
		return nil, err
	}
	if res.FitCalls, err = callRR(fitIDs); err != nil {
		return nil, err
	}
	res.FitMisses = uint64(serverNIC.Metrics().Snapshot().Value("conn.misses"))
	if res.FitMisses != 0 {
		return nil, fmt.Errorf("connscale: %d conns inside a %d-entry cache missed %d times",
			res.FitConns, funcConnScaleCache, res.FitMisses)
	}
	if got := cli.ConnMisses.Load(); got != 0 {
		return nil, fmt.Errorf("connscale: client saw %d echoed misses from a fitting working set", got)
	}

	// Spill phase: grow the working set to 2C. Each slot now hosts two ids
	// visited alternately, so after the first round's first-contact opens
	// every lookup misses, is stamped on the frame, and is echoed back.
	allIDs, err := grow(fitIDs, res.SpillConns)
	if err != nil {
		return nil, err
	}
	if res.SpillCalls, err = callRR(allIDs); err != nil {
		return nil, err
	}
	res.SpillMisses = uint64(serverNIC.Metrics().Snapshot().Value("conn.misses"))
	if res.SpillMisses < uint64(res.SpillCalls)/2 {
		return nil, fmt.Errorf("connscale: %d conns over a %d-entry cache missed only %d/%d lookups",
			res.SpillConns, funcConnScaleCache, res.SpillMisses, res.SpillCalls)
	}
	if got := cli.ConnMisses.Load(); got != res.SpillMisses {
		return nil, fmt.Errorf("connscale: server stamped %d misses but client echo counted %d",
			res.SpillMisses, got)
	}

	// Churn phase: close every connection; each close propagates as a wire
	// control frame and the server table must drain completely — the
	// boundedness an unbounded steering map cannot offer.
	for _, id := range allIDs {
		if err := cli.CloseConnection(id); err != nil {
			return nil, fmt.Errorf("connscale: close conn %d: %w", id, err)
		}
	}
	res.FinalOpen = int(serverNIC.Metrics().Snapshot().Value("conn.open"))
	if res.FinalOpen != 0 {
		return nil, fmt.Errorf("connscale: %d server entries leaked after closing all %d conns",
			res.FinalOpen, res.SpillConns)
	}
	return res, nil
}

// funcChaosResult is the functional chaos run's outcome. The fault draw is
// seeded, so the in-fabric tallies repeat run to run.
type funcChaosResult struct {
	// In-fabric phase: calls through a server NIC whose admission stage
	// drops, duplicates, delays, reorders, and corrupts at funcChaosFaultPPM
	// per class.
	Calls           int
	Succeeded       int
	TimedOut        int
	CorruptAccepted int // responses whose payload failed validation
	NICCorrupts     uint64
	NICCorruptDrops uint64

	// Lossy-transport phase: calls across two fabrics bridged by the
	// reliable protocol over a funcChaosLoss-lossy datagram net.
	LossyCalls     int
	LossySucceeded int

	// Dead-peer phase: one call into a blackholed route must fail fast with
	// core.ErrPeerDead via the transport dead-letter plane.
	DeadLetters uint64
}

// lossyNet is an in-memory datagram network with seeded loss, the functional
// stand-in for a flaky machine-to-machine link. It implements just enough to
// carry transport.PacketConn traffic; delivery order is goroutine order, as
// with the real UDP conn.
type lossyNet struct {
	mu    sync.Mutex
	conns map[string]*lossyConn
	rng   *rand.Rand
	loss  float64
}

func newLossyNet(loss float64, seed int64) *lossyNet {
	return &lossyNet{conns: map[string]*lossyConn{}, rng: rand.New(rand.NewSource(seed)), loss: loss}
}

type lossyConn struct {
	net     *lossyNet
	name    string
	mu      sync.Mutex
	handler func([]byte, string)
	closed  bool
}

func (n *lossyNet) conn(name string) *lossyConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := &lossyConn{net: n, name: name}
	n.conns[name] = c
	return c
}

func (c *lossyConn) Send(endpoint string, pkt []byte) error {
	c.net.mu.Lock()
	dst := c.net.conns[endpoint]
	drop := c.net.rng.Float64() < c.net.loss
	c.net.mu.Unlock()
	if dst == nil {
		return fmt.Errorf("lossynet: no conn %q", endpoint)
	}
	if drop {
		return nil // silently lost, like UDP
	}
	cp := make([]byte, len(pkt))
	copy(cp, pkt)
	go func() {
		dst.mu.Lock()
		h := dst.handler
		closed := dst.closed
		dst.mu.Unlock()
		if h != nil && !closed {
			h(cp, c.name)
		}
	}()
	return nil
}

func (c *lossyConn) SetHandler(h func([]byte, string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handler = h
}

func (c *lossyConn) LocalEndpoint() string { return c.name }

func (c *lossyConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// funcChaosPayload is the known-pattern request; the response must echo it
// byte-for-byte or the stack accepted corruption.
var funcChaosPayload = []byte("chaos-pattern-0123456789abcdef")

// runFuncChaos runs three phases: in-fabric fault injection at the server
// NIC's admission stage, datagram loss under the reliable transport, and a
// dead peer behind the transport's dead-letter plane. quick shrinks the
// in-fabric phase from 400 calls to 100 and the lossy phase from 100 to 30.
// Gate violations come back as errors.
func runFuncChaos(quick bool) (*funcChaosResult, error) {
	res := &funcChaosResult{Calls: 400, LossyCalls: 100}
	if quick {
		res.Calls, res.LossyCalls = 100, 30
	}
	if err := runFuncChaosInFabric(res); err != nil {
		return nil, err
	}
	if err := runFuncChaosTransport(res); err != nil {
		return nil, err
	}
	return res, nil
}

// runFuncChaosInFabric is the in-fabric phase: every request frame passes the
// server NIC's fault stage at funcChaosFaultPPM per class. Faulted calls may
// time out — bounded by funcChaosTimeout — but none may hang, no corrupted
// frame may reach dispatch, and goodput must stay high.
func runFuncChaosInFabric(res *funcChaosResult) error {
	fab := fabric.NewFabric()
	r, err := newRig(fab, fab, fnFuncChaos, "chaos.echo", 0)
	if err != nil {
		return err
	}
	defer r.close()
	cli, serverNIC := r.cli, r.serverNIC
	inj, err := faults.NewInjector(faults.Config{
		Seed: funcChaosSeed,
		Rates: faults.Rates{
			Drop: funcChaosFaultPPM, Duplicate: funcChaosFaultPPM, Delay: funcChaosFaultPPM,
			Reorder: funcChaosFaultPPM, Corrupt: funcChaosFaultPPM,
		},
	})
	if err != nil {
		return err
	}
	serverNIC.SetFaultInjector(inj)
	cli.SetTimeout(funcChaosTimeout)

	for i := 0; i < res.Calls; i++ {
		resp, err := cli.Call(fnFuncChaos, funcChaosPayload)
		switch {
		case err == nil:
			if !bytes.Equal(resp, funcChaosPayload) {
				res.CorruptAccepted++
			}
			res.Succeeded++
			cli.Release(resp)
		case errors.Is(err, core.ErrTimeout):
			res.TimedOut++
		default:
			return fmt.Errorf("chaos: call %d failed outside the fault model: %w", i, err)
		}
	}
	// Release anything the fault stage is still holding. The stage counts
	// corruptions and their drops as it delivers, so both counters are final
	// once the last call has returned.
	serverNIC.FlushFaults()
	snap := serverNIC.Metrics().Snapshot()
	res.NICCorrupts = uint64(snap.Value("fault.corrupted"))
	res.NICCorruptDrops = uint64(snap.Value("fault.corrupt.dropped"))

	if res.CorruptAccepted != 0 {
		return fmt.Errorf("chaos: %d corrupted payloads accepted end to end", res.CorruptAccepted)
	}
	if res.NICCorruptDrops != res.NICCorrupts {
		return fmt.Errorf("chaos: NIC caught %d of %d corrupted frames — the rest were dispatched",
			res.NICCorruptDrops, res.NICCorrupts)
	}
	if res.Succeeded+res.TimedOut != res.Calls {
		return fmt.Errorf("chaos: %d calls unaccounted for",
			res.Calls-res.Succeeded-res.TimedOut)
	}
	// ~4% of request frames fault visibly (drop/delay/reorder/corrupt); 90%
	// goodput leaves generous slack over the binomial spread.
	if res.Succeeded*10 < res.Calls*9 {
		return fmt.Errorf("chaos: only %d of %d calls succeeded at 1%% per-class faults",
			res.Succeeded, res.Calls)
	}
	return nil
}

// runFuncChaosTransport is the cross-host phase: the reliable protocol must
// recover every call under real datagram loss, and a dead peer must fail
// fast through the dead-letter plane rather than hang.
func runFuncChaosTransport(res *funcChaosResult) error {
	// Lossy link: every call must still succeed.
	net := newLossyNet(funcChaosLoss, funcChaosSeed)
	cliFab, srvFab := fabric.NewFabric(), fabric.NewFabric()
	cliRel := transport.NewReliable(net.conn("cli"), transport.ReliableOptions{RTO: 5 * time.Millisecond})
	srvRel := transport.NewReliable(net.conn("srv"), transport.ReliableOptions{RTO: 5 * time.Millisecond})
	cliBridge := transport.NewBridge(cliFab, cliRel,
		transport.NewRouteTable(transport.Route{Lo: funcServerAddr, Hi: funcServerAddr, Endpoint: "srv"}))
	defer cliBridge.Close()
	srvBridge := transport.NewBridge(srvFab, srvRel,
		transport.NewRouteTable(transport.Route{Lo: funcClientAddr, Hi: funcClientAddr, Endpoint: "cli"}))
	defer srvBridge.Close()

	r, err := newRig(cliFab, srvFab, fnFuncChaos, "chaos.echo", 0)
	if err != nil {
		return err
	}
	defer r.close()
	cli := r.cli
	cli.SetTimeout(10 * time.Second)

	for i := 0; i < res.LossyCalls; i++ {
		resp, err := cli.Call(fnFuncChaos, funcChaosPayload)
		if err != nil {
			return fmt.Errorf("chaos: lossy-transport call %d not recovered: %w", i, err)
		}
		if !bytes.Equal(resp, funcChaosPayload) {
			return fmt.Errorf("chaos: lossy-transport call %d corrupted", i)
		}
		res.LossySucceeded++
		cli.Release(resp)
	}

	// Dead peer: blackholed route, bounded failure.
	dark := newLossyNet(1.0, funcChaosSeed+1)
	deadFab := fabric.NewFabric()
	deadRel := transport.NewReliable(dark.conn("cli"), transport.ReliableOptions{
		RTO: 2 * time.Millisecond, MaxRetries: 3,
	})
	deadBridge := transport.NewBridge(deadFab, deadRel,
		transport.NewRouteTable(transport.Route{Lo: funcServerAddr, Hi: funcServerAddr, Endpoint: "void"}))
	defer deadBridge.Close()
	dark.conn("void")
	deadNIC, err := deadFab.CreateNIC(funcClientAddr, 1, 64)
	if err != nil {
		return err
	}
	deadCli, err := core.NewRpcClient(deadNIC, 0)
	if err != nil {
		return err
	}
	defer deadCli.Close()
	if _, err := deadCli.OpenConnection(funcServerAddr); err != nil {
		return err
	}
	deadCli.SetTimeout(funcDeadPeerTimeout)

	_, err = deadCli.Call(fnFuncChaos, funcChaosPayload)
	res.DeadLetters = deadBridge.DeadLetters.Load()
	if !errors.Is(err, core.ErrPeerDead) {
		return fmt.Errorf("chaos: dead-peer call returned %v, want ErrPeerDead within %v — fail-fast path did not engage",
			err, funcDeadPeerTimeout)
	}
	if res.DeadLetters == 0 {
		return errors.New("chaos: dead peer produced no dead letters")
	}
	return nil
}
