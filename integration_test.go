package dagger_test

// Cross-module integration tests: the IDL-generated stubs over the
// functional stack, multi-cache-line RPCs opened as whole frames,
// and a full application path across two fabrics bridged over real UDP with
// the reliable transport protocol.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dagger/examples/kvs/kvsproto"
	"dagger/internal/core"
	"dagger/internal/fabric"
	"dagger/internal/flight"
	"dagger/internal/trace"
	"dagger/internal/transport"
	"dagger/internal/wire"
)

// mapKVS implements the generated KeyValueStoreServer.
type mapKVS struct {
	mu sync.Mutex
	m  map[[32]byte][32]byte
}

func (s *mapKVS) Get(_ context.Context, req *kvsproto.GetRequest) (*kvsproto.GetResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := &kvsproto.GetResponse{Timestamp: req.Timestamp}
	resp.Value = s.m[req.Key]
	return resp, nil
}

func (s *mapKVS) Set(_ context.Context, req *kvsproto.SetRequest) (*kvsproto.SetResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[req.Key] = req.Value
	return &kvsproto.SetResponse{Timestamp: req.Timestamp, Ok: true}, nil
}

// TestGeneratedStubsEndToEnd drives the Listing 1 service through its
// daggergen-generated client and server glue.
func TestGeneratedStubsEndToEnd(t *testing.T) {
	fab := fabric.NewFabric()
	cnic, _ := fab.CreateNIC(1, 1, 256)
	snic, _ := fab.CreateNIC(2, 2, 256)
	srv := core.NewRpcThreadedServer(snic, core.ServerConfig{})
	if err := kvsproto.RegisterKeyValueStore(srv, &mapKVS{m: map[[32]byte][32]byte{}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	cli, _ := core.NewRpcClient(cnic, 0)
	defer cli.Close()
	if _, err := cli.OpenConnection(2); err != nil {
		t.Fatal(err)
	}
	kv := kvsproto.NewKeyValueStoreClient(cli)

	var key, val [32]byte
	copy(key[:], "integration")
	copy(val[:], "through-stubs")
	setResp, err := kv.Set(context.Background(), &kvsproto.SetRequest{Timestamp: 1, Key: key, Value: val})
	if err != nil || !setResp.Ok {
		t.Fatalf("set: %+v %v", setResp, err)
	}
	getResp, err := kv.Get(context.Background(), &kvsproto.GetRequest{Timestamp: 2, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if getResp.Value != val || getResp.Timestamp != 2 {
		t.Fatalf("get = %+v", getResp)
	}

	// Async stub path.
	done := make(chan *kvsproto.GetResponse, 1)
	if err := kv.GetAsync(context.Background(), &kvsproto.GetRequest{Timestamp: 3, Key: key}, func(r *kvsproto.GetResponse, err error) {
		if err != nil {
			t.Errorf("async: %v", err)
		}
		done <- r
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.Value != val {
			t.Fatal("async value mismatch")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("async stub timeout")
	}
}

// TestMultiLineRPCs pushes payloads spanning 1..40 cache lines through the
// stack, exercising multi-line framing and frame opening end to end.
func TestMultiLineRPCs(t *testing.T) {
	fab := fabric.NewFabric()
	cnic, _ := fab.CreateNIC(1, 1, 256)
	snic, _ := fab.CreateNIC(2, 1, 256)
	srv := core.NewRpcThreadedServer(snic, core.ServerConfig{})
	_ = srv.Register(0, "sum", func(_ context.Context, req []byte) ([]byte, error) {
		var sum byte
		for _, b := range req {
			sum += b
		}
		return append(req, sum), nil
	})
	_ = srv.Start()
	defer srv.Stop()
	cli, _ := core.NewRpcClient(cnic, 0)
	defer cli.Close()
	_, _ = cli.OpenConnection(2)

	for _, n := range []int{0, 1, 31, 32, 33, 64, 100, 500, 1000, 2500} {
		payload := make([]byte, n)
		var want byte
		for i := range payload {
			payload[i] = byte(i * 13)
			want += payload[i]
		}
		resp, err := cli.Call(0, payload)
		if err != nil {
			t.Fatalf("len %d (%d lines): %v", n, wire.LinesFor(n), err)
		}
		if len(resp) != n+1 || !bytes.Equal(resp[:n], payload) || resp[n] != want {
			t.Fatalf("len %d: corrupted multi-line round trip", n)
		}
	}
}

// TestFlightOverUDPBridge splits the flight app's client side from its
// servers... kept simpler: a traced echo service across two fabrics over
// real UDP with the reliability protocol.
func TestTracedServiceOverUDP(t *testing.T) {
	cliFab := fabric.NewFabric()
	srvFab := fabric.NewFabric()
	cliConn, err := transport.NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvConn, err := transport.NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cb := transport.NewBridge(cliFab,
		transport.NewReliable(cliConn, transport.ReliableOptions{}),
		transport.NewRouteTable(transport.Route{Lo: 100, Hi: 100, Endpoint: srvConn.LocalEndpoint()}))
	defer cb.Close()
	sb := transport.NewBridge(srvFab,
		transport.NewReliable(srvConn, transport.ReliableOptions{}),
		transport.NewRouteTable(transport.Route{Lo: 1, Hi: 1, Endpoint: cliConn.LocalEndpoint()}))
	defer sb.Close()

	snic, _ := srvFab.CreateNIC(100, 2, 256)
	srv := core.NewRpcThreadedServer(snic, core.ServerConfig{Threading: core.WorkerThreads, Workers: 2})
	tc := trace.NewCollector(0)
	_ = srv.SetTracer(tc)
	_ = srv.Register(0, "remote.work", func(_ context.Context, req []byte) ([]byte, error) {
		return append([]byte("done:"), req...), nil
	})
	_ = srv.Start()
	defer srv.Stop()

	cnic, _ := cliFab.CreateNIC(1, 1, 256)
	cli, _ := core.NewRpcClient(cnic, 0)
	defer cli.Close()
	_, _ = cli.OpenConnection(100)
	for i := 0; i < 25; i++ {
		resp, err := cli.Call(0, []byte(fmt.Sprintf("req-%d", i)))
		if err != nil {
			t.Fatalf("call %d over UDP: %v", i, err)
		}
		if string(resp) != fmt.Sprintf("done:req-%d", i) {
			t.Fatalf("call %d: %q", i, resp)
		}
	}
	rep := tc.Analyze()
	if rep.Bottleneck() != "remote.work" {
		t.Fatalf("trace report: %s", rep)
	}
	if rep.Profiles[0].Spans != 25 {
		t.Fatalf("spans = %d", rep.Profiles[0].Spans)
	}
}

// TestFlightAppAndModelAgree sanity-checks that the functional flight app
// and the timing model agree on the threading models' qualitative behavior.
func TestFlightAppAndModelAgree(t *testing.T) {
	// Functional: worker threading overlaps slow Flight lookups.
	app, err := flight.New(flight.Config{
		Citizens: 100, FlightWork: 3 * time.Millisecond,
		Threading: flight.OptimizedThreading(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := app.RegisterPassenger(flight.Passenger{ID: uint64(i), FlightNo: 1, Bags: 1}); err != nil {
				t.Errorf("register: %v", err)
			}
		}(i)
	}
	wg.Wait()
	functionalOverlap := time.Since(start) < 10*time.Millisecond
	app.Close()

	// Model: optimized sustains far more load than simple.
	simple := flight.RunModel(flight.ModelConfig{Threading: flight.Simple, LoadRPS: 10000, Requests: 10000, Seed: 2})
	opt := flight.RunModel(flight.ModelConfig{Threading: flight.Optimized, LoadRPS: 10000, Requests: 10000, Seed: 2})
	modelAgrees := opt.DropFrac() < simple.DropFrac()

	if !functionalOverlap {
		t.Error("functional app: worker threading did not overlap slow lookups")
	}
	if !modelAgrees {
		t.Errorf("model: optimized drops (%.3f) not below simple (%.3f)", opt.DropFrac(), simple.DropFrac())
	}
}
