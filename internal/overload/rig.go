package overload

import (
	"context"
	"sort"
	"time"

	"dagger/internal/core"
	"dagger/internal/fabric"
)

// rigConfig is what differs between the drivers' otherwise identical
// set-ups; zero values take the common choice.
type rigConfig struct {
	fn   uint16
	name string
	// service is how long the handler occupies its thread before echoing
	// the request (0 = pure echo).
	service time.Duration
	// serverRing is the server NIC's RX ring depth (0 = ringDepth, deep
	// enough that ring drops never mask the policy under test).
	serverRing int
	// connCache is the server NIC's connection cache capacity (0 = the
	// fabric default).
	connCache int
	server    core.ServerConfig
}

// rig is the stack every driver runs on: a one-flow client NIC and a
// one-flow server NIC (one flow = one dispatch thread = one core, matching
// the timing-stack models), a started server with one echo handler, a
// client, and one open connection to the server.
type rig struct {
	serverNIC *fabric.SoftNIC
	srv       *core.RpcThreadedServer
	cli       *core.RpcClient
	conn      uint32
}

// newRig builds a rig with the client NIC on cliFab and the server NIC on
// srvFab — the same fabric for the in-process drivers, two bridged ones for
// the cross-host chaos phase.
func newRig(cliFab, srvFab *fabric.Fabric, cfg rigConfig) (*rig, error) {
	if cfg.serverRing == 0 {
		cfg.serverRing = ringDepth
	}
	clientNIC, err := cliFab.CreateNIC(clientAddr, 1, ringDepth)
	if err != nil {
		return nil, err
	}
	serverNIC, err := srvFab.CreateNICConns(serverAddr, 1, cfg.serverRing, cfg.connCache)
	if err != nil {
		return nil, err
	}
	srv := core.NewRpcThreadedServer(serverNIC, cfg.server)
	if err := srv.Register(cfg.fn, cfg.name, func(_ context.Context, req []byte) ([]byte, error) {
		// Spin rather than sleep: time.Sleep's millisecond-scale minimum
		// granularity would inflate a 200us service time ~5x and move the
		// saturation point the sweeps are calibrated against.
		for start := time.Now(); time.Since(start) < cfg.service; {
		}
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
	conn, err := cli.OpenConnection(serverAddr)
	if err != nil {
		cli.Close()
		srv.Stop()
		return nil, err
	}
	return &rig{serverNIC: serverNIC, srv: srv, cli: cli, conn: conn}, nil
}

// close tears the rig down client first, the order every driver used.
func (r *rig) close() {
	r.cli.Close()
	r.srv.Stop()
}

// latPercentiles returns the p50 and p99 of the recorded latencies.
func latPercentiles(lat []time.Duration) (p50, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	sorted := make([]time.Duration, len(lat))
	copy(sorted, lat)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p50 = sorted[len(sorted)*50/100]
	idx := len(sorted) * 99 / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return p50, sorted[idx]
}
