//go:build !race

package core

import (
	"context"
	"fmt"
	"testing"
)

// TestSendRecvZeroAlloc is the tentpole acceptance check: once the pools are
// warm, a synchronous in-process round trip (send, serve, receive, release)
// performs zero heap allocations — across all goroutines, since AllocsPerRun
// counts process-wide mallocs. The 4096 B case is the 65-line frame of the
// echo_large benchmark workload. Excluded under -race: the detector's
// instrumentation allocates on its own behalf.
func TestSendRecvZeroAlloc(t *testing.T) {
	for _, req := range [][]byte{allocReq, make([]byte, 4096)} {
		t.Run(fmt.Sprintf("%dB", len(req)), func(t *testing.T) {
			cli, _, shutdown := testPair(t, ServerConfig{})
			defer shutdown()
			warmAllocPath(t, cli, req, 200)
			avg := testing.AllocsPerRun(500, func() {
				resp, err := cli.Call(0, req)
				if err != nil {
					t.Fatal(err)
				}
				cli.Release(resp)
			})
			if avg != 0 {
				t.Fatalf("round trip allocates %.2f times/op; want 0", avg)
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
