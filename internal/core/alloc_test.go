package core

import (
	"sync"
	"testing"
	"time"

	"dagger/internal/fabric"
)

// allocReq spans two cache lines so the round trip exercises multi-line
// framing, not just a single-line frame.
var allocReq = []byte("0123456789abcdef0123456789abcdef0123456789abcdef")

// warmAllocPath primes every free list on the round trip of req: frame and
// payload buffer pools, the call and timer pools, and the pending-map
// buckets.
func warmAllocPath(tb testing.TB, cli *RpcClient, req []byte, iters int) {
	tb.Helper()
	for i := 0; i < iters; i++ {
		resp, err := cli.Call(0, req)
		if err != nil {
			tb.Fatal(err)
		}
		cli.Release(resp)
	}
}

// BenchmarkSendRecvAllocs reports the round trip's allocation count (the
// EXPERIMENTS.md number; 0 allocs/op on the pooled path).
func BenchmarkSendRecvAllocs(b *testing.B) {
	cli, _, shutdown := testPair(b, ServerConfig{})
	defer shutdown()
	warmAllocPath(b, cli, allocReq, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cli.Call(0, allocReq)
		if err != nil {
			b.Fatal(err)
		}
		cli.Release(resp)
	}
}

// TestSetTimeoutConcurrentWithCalls hammers SetTimeout while calls are in
// flight; under -race this is the regression test for the old unsynchronized
// timeout field.
func TestSetTimeoutConcurrentWithCalls(t *testing.T) {
	cli, _, shutdown := testPair(t, ServerConfig{})
	defer shutdown()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		timeouts := []time.Duration{time.Second, 2 * time.Second, 0}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cli.SetTimeout(timeouts[i%len(timeouts)])
		}
	}()
	for i := 0; i < 500; i++ {
		resp, err := cli.Call(0, allocReq)
		if err != nil {
			t.Fatal(err)
		}
		cli.Release(resp)
	}
	close(stop)
	wg.Wait()
}

// TestCloseConnectionElectsLowestSurvivor pins the deterministic default
// re-election: closing the default connection must promote the
// lowest-numbered survivor, not whichever the map iterator yields first.
func TestCloseConnectionElectsLowestSurvivor(t *testing.T) {
	// Repeat with fresh clients: the old map-iteration election only
	// misbehaved probabilistically.
	for round := 0; round < 10; round++ {
		f := fabric.NewFabric()
		nic, err := f.CreateNIC(1, 1, 16)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := NewRpcClient(nic, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint32, 6)
		for i := range ids {
			if ids[i], err = cli.OpenConnection(uint32(10 + i)); err != nil {
				t.Fatal(err)
			}
		}
		// IDs ascend in open order, so ids[0] is both default and lowest.
		if err := cli.CloseConnection(ids[0]); err != nil {
			t.Fatal(err)
		}
		cli.mu.Lock()
		got := cli.defaultConn // 0: no default
		cli.mu.Unlock()
		if got != ids[1] {
			t.Fatalf("round %d: default after close = %d, want lowest survivor %d",
				round, got, ids[1])
		}
		// Closing a non-default connection must not move the default.
		if err := cli.CloseConnection(ids[3]); err != nil {
			t.Fatal(err)
		}
		cli.mu.Lock()
		got = cli.defaultConn
		cli.mu.Unlock()
		if got != ids[1] {
			t.Fatalf("round %d: default moved to %d after closing non-default", round, got)
		}
		cli.Close()
		nic.Close()
	}
}
