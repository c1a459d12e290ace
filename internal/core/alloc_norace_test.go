//go:build !race

package core

import (
	"context"
	"fmt"
	"testing"
)

// loansPerRPC is the pool loans one warm synchronous round trip takes: the
// request frame and payload from the server's flow pool, the response frame
// and payload from the client's. ROADMAP 10a (the server reads its request
// out of the frame) takes it to 3, and 10b (the client copies once, into the
// caller's buffer) to 2.
const loansPerRPC = 4

// TestSendRecvZeroAlloc is the tentpole acceptance check: once the pools are
// warm, a synchronous in-process round trip (send, serve, receive, release)
// performs zero heap allocations — across all goroutines, since AllocsPerRun
// counts process-wide mallocs — and takes exactly loansPerRPC pool loans.
// The 4096 B case is the 65-line frame of the echo_large benchmark workload.
// Excluded under -race: the detector's instrumentation allocates on its own
// behalf.
func TestSendRecvZeroAlloc(t *testing.T) {
	for _, req := range [][]byte{allocReq, make([]byte, 4096)} {
		t.Run(fmt.Sprintf("%dB", len(req)), func(t *testing.T) {
			cli, srv, shutdown := testPair(t, ServerConfig{})
			defer shutdown()
			warmAllocPath(t, cli, req, 200)
			loanGets := func() (n uint64) {
				n, _ = cli.flow.Buffers().Loans()
				for _, th := range srv.threads {
					gets, _ := th.flow.Buffers().Loans()
					n += gets
				}
				return n
			}
			const runs = 500
			before := loanGets()
			avg := testing.AllocsPerRun(runs, func() {
				resp, err := cli.Call(0, req)
				if err != nil {
					t.Fatal(err)
				}
				cli.Release(resp)
			})
			if avg != 0 {
				t.Fatalf("round trip allocates %.2f times/op; want 0", avg)
			}
			// AllocsPerRun makes one warm-up call before its runs.
			if d := loanGets() - before; d != loansPerRPC*(runs+1) {
				t.Fatalf("%d pool loans over %d round trips (%.2f/op); want %d/op",
					d, runs+1, float64(d)/(runs+1), loansPerRPC)
			}
		})
	}
}

// TestCallContextZeroAlloc pins the ctx-first API to the same budget: an
// explicit CallContext with context.Background() takes the identical pooled
// path (Background's nil Done channel keeps the wait select allocation-free,
// and a zero budget skips the server's deadline context).
func TestCallContextZeroAlloc(t *testing.T) {
	cli, _, shutdown := testPair(t, ServerConfig{})
	defer shutdown()
	warmAllocPath(t, cli, allocReq, 200)
	ctx := context.Background()
	avg := testing.AllocsPerRun(500, func() {
		resp, err := cli.CallContext(ctx, 0, allocReq)
		if err != nil {
			t.Fatal(err)
		}
		cli.Release(resp)
	})
	if avg != 0 {
		t.Fatalf("ctx-first round trip allocates %.2f times/op; want 0", avg)
	}
}
