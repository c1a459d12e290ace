package overload

import (
	"bytes"
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

const (
	fnChaos = 4
	// chaosFaultPPM is the per-class fault rate of the in-fabric phase: 1%
	// each of drop, duplicate, delay, reorder, and corrupt — the hardening
	// target rate the chaos gates are written against.
	chaosFaultPPM = 10_000
	// chaosTimeout bounds each in-fabric call: a dropped request costs this
	// much and no more, which is what the no-hangs gate means in wall time.
	chaosTimeout = 50 * time.Millisecond
	// chaosLoss is the lossy-transport phase's datagram loss rate; the
	// reliable protocol must recover every call under it.
	chaosLoss = 0.01
	// chaosSeed fixes the fault draw and the link-loss draw.
	chaosSeed = 0xC4A05
)

// ChaosConfig parametrizes one functional chaos run.
type ChaosConfig struct {
	// Quick shrinks the in-fabric phase from 400 calls to 100 and the
	// lossy-transport phase from 100 to 30, for CI smoke runs.
	Quick bool
}

// ChaosResult is one functional chaos run's outcome. The fault draw is
// deterministic (seeded injector) but the stack runs in real time, so the
// success counts gate broad invariants, not exact tallies.
type ChaosResult struct {
	// In-fabric phase: calls through a server NIC whose admission stage
	// drops, duplicates, delays, reorders, and corrupts at chaosFaultPPM per
	// class.
	Calls           int
	Succeeded       int
	TimedOut        int
	CorruptAccepted int // responses whose payload failed validation
	NICCorrupts     uint64
	NICCorruptDrops uint64
	LateResponses   uint64

	// Lossy-transport phase: calls across two fabrics bridged by the
	// reliable protocol over a chaosLoss-lossy datagram net.
	LossyCalls     int
	LossySucceeded int
	LossRate       float64
	Retransmits    uint64

	// Dead-peer phase: one call into a blackholed route must fail fast with
	// core.ErrPeerDead via the transport dead-letter plane.
	DeadLatency time.Duration
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

// chaosPayload is the in-fabric phase's known-pattern request; the response
// must echo it byte-for-byte or the stack accepted corruption.
var chaosPayload = []byte("chaos-pattern-0123456789abcdef")

// RunChaos executes the functional half of the chaos experiment in three
// phases: in-fabric fault injection at the server NIC's admission stage,
// datagram loss under the reliable transport, and a dead peer behind the
// transport's dead-letter plane. Gate violations come back as errors so
// daggerbench's CI smoke run fails when the hardening story rots.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	res := &ChaosResult{Calls: 400, LossyCalls: 100, LossRate: chaosLoss}
	if cfg.Quick {
		res.Calls, res.LossyCalls = 100, 30
	}
	if err := runChaosInFabric(res); err != nil {
		return nil, err
	}
	if err := runChaosTransport(res); err != nil {
		return nil, err
	}
	return res, nil
}

// runChaosInFabric is the in-fabric phase: every request frame passes the
// server NIC's fault stage at chaosFaultPPM per class. Faulted calls may time
// out — bounded by chaosTimeout — but none may hang, no corrupted frame may
// reach dispatch, and goodput must stay high.
func runChaosInFabric(res *ChaosResult) error {
	fab := fabric.NewFabric()
	r, err := newRig(fab, fab, rigConfig{fn: fnChaos, name: "chaos.echo"})
	if err != nil {
		return err
	}
	defer r.close()
	cli, serverNIC := r.cli, r.serverNIC
	inj, err := faults.NewInjector(faults.Config{
		Seed: chaosSeed,
		Rates: faults.Rates{
			Drop: chaosFaultPPM, Duplicate: chaosFaultPPM, Delay: chaosFaultPPM,
			Reorder: chaosFaultPPM, Corrupt: chaosFaultPPM,
		},
	})
	if err != nil {
		return err
	}
	serverNIC.SetFaultInjector(inj)
	cli.SetTimeout(chaosTimeout)

	for i := 0; i < res.Calls; i++ {
		resp, err := cli.Call(fnChaos, chaosPayload)
		switch {
		case err == nil:
			if !bytes.Equal(resp, chaosPayload) {
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
	// Release anything the fault stage is still holding so the loan ledger
	// and late-response counters settle.
	serverNIC.FlushFaults()
	time.Sleep(10 * time.Millisecond)
	snap := serverNIC.Metrics().Snapshot()
	res.NICCorrupts = uint64(snap.Value("fault.corrupted"))
	res.NICCorruptDrops = uint64(snap.Value("fault.corrupt.dropped"))
	res.LateResponses = cli.Late.Load()

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

// runChaosTransport is the cross-host phase: the reliable protocol must
// recover every call under real datagram loss, and a dead peer must fail
// fast through the dead-letter plane rather than hang.
func runChaosTransport(res *ChaosResult) error {
	// Lossy link: every call must still succeed.
	net := newLossyNet(chaosLoss, chaosSeed)
	cliFab, srvFab := fabric.NewFabric(), fabric.NewFabric()
	cliRel := transport.NewReliable(net.conn("cli"), transport.ReliableOptions{RTO: 5 * time.Millisecond})
	srvRel := transport.NewReliable(net.conn("srv"), transport.ReliableOptions{RTO: 5 * time.Millisecond})
	cliBridge := transport.NewBridge(cliFab, cliRel,
		transport.NewRouteTable(transport.Route{Lo: serverAddr, Hi: serverAddr, Endpoint: "srv"}))
	defer cliBridge.Close()
	srvBridge := transport.NewBridge(srvFab, srvRel,
		transport.NewRouteTable(transport.Route{Lo: clientAddr, Hi: clientAddr, Endpoint: "cli"}))
	defer srvBridge.Close()

	r, err := newRig(cliFab, srvFab, rigConfig{fn: fnChaos, name: "chaos.echo"})
	if err != nil {
		return err
	}
	defer r.close()
	cli := r.cli
	cli.SetTimeout(10 * time.Second)

	for i := 0; i < res.LossyCalls; i++ {
		resp, err := cli.Call(fnChaos, chaosPayload)
		if err != nil {
			return fmt.Errorf("chaos: lossy-transport call %d not recovered: %w", i, err)
		}
		if !bytes.Equal(resp, chaosPayload) {
			return fmt.Errorf("chaos: lossy-transport call %d corrupted", i)
		}
		res.LossySucceeded++
		cli.Release(resp)
	}
	res.Retransmits = cliRel.Retransmits.Load() + srvRel.Retransmits.Load()

	// Dead peer: blackholed route, bounded failure.
	dark := newLossyNet(1.0, chaosSeed+1)
	deadFab := fabric.NewFabric()
	deadRel := transport.NewReliable(dark.conn("cli"), transport.ReliableOptions{
		RTO: 2 * time.Millisecond, MaxRetries: 3,
	})
	deadBridge := transport.NewBridge(deadFab, deadRel,
		transport.NewRouteTable(transport.Route{Lo: serverAddr, Hi: serverAddr, Endpoint: "void"}))
	defer deadBridge.Close()
	dark.conn("void")
	deadNIC, err := deadFab.CreateNIC(clientAddr, 1, 64)
	if err != nil {
		return err
	}
	deadCli, err := core.NewRpcClient(deadNIC, 0)
	if err != nil {
		return err
	}
	defer deadCli.Close()
	if _, err := deadCli.OpenConnection(serverAddr); err != nil {
		return err
	}
	deadCli.SetTimeout(30 * time.Second) // the dead-letter must beat this by miles

	start := time.Now()
	_, err = deadCli.Call(fnChaos, chaosPayload)
	res.DeadLatency = time.Since(start)
	res.DeadLetters = deadBridge.DeadLetters.Load()
	if !errors.Is(err, core.ErrPeerDead) {
		return fmt.Errorf("chaos: dead-peer call returned %v, want ErrPeerDead", err)
	}
	if res.DeadLatency > 5*time.Second {
		return fmt.Errorf("chaos: dead-peer verdict took %v — fail-fast path did not engage", res.DeadLatency)
	}
	if res.DeadLetters == 0 {
		return errors.New("chaos: dead peer produced no dead letters")
	}
	return nil
}
