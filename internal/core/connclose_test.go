package core

import (
	"context"
	"errors"
	"testing"

	"dagger/internal/fabric"
	"dagger/internal/trace"
)

// connPair builds a client and started echo server over NICs with an
// explicit server-side connection cache capacity.
func connPair(t *testing.T, connCache int) (*RpcClient, *fabric.SoftNIC, func()) {
	t.Helper()
	f := fabric.NewFabric()
	cnic, err := f.CreateNIC(1, 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	snic, err := f.CreateNICConns(2, 2, 256, connCache)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRpcThreadedServer(snic, ServerConfig{})
	if err := srv.Register(0, "echo", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	}); err != nil {
		t.Fatal(err)
	}
	tracer := trace.NewCollector(0)
	if err := srv.SetTracer(tracer); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cli, err := NewRpcClient(cnic, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cli, snic, func() {
		cli.Close()
		srv.Stop()
	}
}

// connGauge reads one conn.* sample from nic's metrics registry.
func connGauge(nic *fabric.SoftNIC, name string) int64 {
	return nic.Metrics().Snapshot().Value("conn." + name)
}

// TestClosePropagationEndToEnd covers the full close lifecycle: client
// CloseConnection emits a wire control frame, the server NIC retires its
// steering entry (OpenCount back to baseline), and a post-close call fails
// with the ErrConnNotOpen sentinel instead of being silently re-steered.
func TestClosePropagationEndToEnd(t *testing.T) {
	cli, snic, shutdown := connPair(t, 0)
	defer shutdown()
	id, err := cli.OpenConnection(2)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cli.CallConn(id, 0, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	cli.Release(resp)
	if got := connGauge(snic, "open"); got != 1 {
		t.Fatalf("server open count after first call = %d, want 1", got)
	}
	serverOpens := connGauge(snic, "opens")

	if err := cli.CloseConnection(id); err != nil {
		t.Fatal(err)
	}
	// The fabric delivers control frames synchronously: by the time
	// CloseConnection returns, the server NIC has retired the entry.
	if got := connGauge(snic, "open"); got != 0 {
		t.Fatalf("server open count after close = %d, want 0 (entry leaked)", got)
	}
	if _, err := cli.CallConn(id, 0, []byte("ping")); !errors.Is(err, ErrConnNotOpen) {
		t.Fatalf("post-close call: %v, want ErrConnNotOpen", err)
	}
	if err := cli.CloseConnection(id); !errors.Is(err, ErrConnNotOpen) {
		t.Fatalf("double close: %v, want ErrConnNotOpen", err)
	}
	// The failed call never reached the wire: no fresh server-side entry.
	if got := connGauge(snic, "opens"); got != serverOpens {
		t.Fatalf("post-close call re-opened server state (%d -> %d opens)", serverOpens, got)
	}

	// Churn: an open/call/close loop holds the server table at its
	// steady-state size — the boundedness the old unbounded map lacked.
	for i := 0; i < 50; i++ {
		id, err := cli.OpenConnection(2)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cli.CallConn(id, 0, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		cli.Release(resp)
		if got := connGauge(snic, "open"); got != 1 {
			t.Fatalf("iteration %d: server open count = %d, want 1", i, got)
		}
		if err := cli.CloseConnection(id); err != nil {
			t.Fatal(err)
		}
		if got := connGauge(snic, "open"); got != 0 {
			t.Fatalf("iteration %d: server open count after close = %d, want 0", i, got)
		}
	}
}

// TestConnMissEchoedToClient drives a connection working set that aliases
// one server cache slot and checks the miss makes the full round trip:
// fabric stamp → server echo → client counter.
func TestConnMissEchoedToClient(t *testing.T) {
	cli, snic, shutdown := connPair(t, 4)
	defer shutdown()
	// A 2-flow client NIC mints ids 1, 3, 5, …; ids 1 and 5 alias one slot
	// of a size-4 cache.
	var ids []uint32
	for i := 0; i < 3; i++ {
		id, err := cli.OpenConnection(2)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if ids[0] != 1 || ids[2] != 5 {
		t.Fatalf("connection ids = %v, want flow-interleaved 1,3,5", ids)
	}
	call := func(id uint32) {
		t.Helper()
		resp, err := cli.CallConn(id, 0, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		cli.Release(resp)
	}
	call(ids[0]) // first contact: open
	call(ids[2]) // first contact: open, evicts ids[0]
	if got := cli.ConnMisses.Load(); got != 0 {
		t.Fatalf("client conn misses after opens = %d, want 0", got)
	}
	call(ids[0]) // miss
	call(ids[2]) // miss
	if got := cli.ConnMisses.Load(); got != 2 {
		t.Fatalf("client conn misses = %d, want 2 (echoed FlagConnMiss)", got)
	}
	if got := connGauge(snic, "misses"); got != 2 {
		t.Fatalf("server NIC conn misses = %d, want 2", got)
	}
	// A conflict-free id stays hit-only.
	call(ids[1])
	call(ids[1])
	if got := cli.ConnMisses.Load(); got != 2 {
		t.Fatalf("conflict-free connection echoed a miss (total %d)", got)
	}
}
