package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagger/internal/fabric"
	"dagger/internal/ringbuf"
)

// waitPoolsBalanced polls until every pool's loan counters balance
// (gets == puts), i.e. every pooled buffer handed out by Get was repaid by
// Put — the PR-2 ownership contract. Late responses to abandoned calls
// drain asynchronously, so balance is eventually reached, not instant.
func waitPoolsBalanced(t *testing.T, pools map[string]*ringbuf.BufPool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		status := ""
		for name, p := range pools {
			gets, puts := p.Loans()
			if gets != puts {
				status += fmt.Sprintf("%s: gets=%d puts=%d; ", name, gets, puts)
			}
		}
		if status == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled buffers leaked: %s", status)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBudgetShrinksAcrossTiers is the multi-tier acceptance check: a 3-tier
// chain (client → mid server → leaf server) in which each downstream tier
// must observe a strictly smaller remaining deadline budget than its
// caller, because the budget is stamped on the wire at each hop from the
// caller's ctx and time passes in flight.
func TestBudgetShrinksAcrossTiers(t *testing.T) {
	f := fabric.NewFabric()

	// Tier C: leaf.
	nicC, err := f.CreateNIC(3, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	var remC atomic.Int64
	srvC := NewRpcThreadedServer(nicC, ServerConfig{})
	if err := srvC.Register(0, "leaf", func(ctx context.Context, req []byte) ([]byte, error) {
		dl, ok := ctx.Deadline()
		if !ok {
			return nil, errors.New("leaf: ctx carries no deadline")
		}
		remC.Store(int64(time.Until(dl)))
		return req, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := srvC.Start(); err != nil {
		t.Fatal(err)
	}
	defer srvC.Stop()

	// Tier B: middle server with its own downstream client. The handler
	// passes its ctx straight into the downstream call, so tier C inherits
	// whatever budget is left after B's queueing and work.
	nicB, err := f.CreateNIC(2, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	nicBC, err := f.CreateNIC(4, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	bcli, err := NewRpcClient(nicBC, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bcli.Close()
	if _, err := bcli.OpenConnection(3); err != nil {
		t.Fatal(err)
	}
	var remB atomic.Int64
	srvB := NewRpcThreadedServer(nicB, ServerConfig{})
	if err := srvB.Register(0, "mid", func(ctx context.Context, req []byte) ([]byte, error) {
		dl, ok := ctx.Deadline()
		if !ok {
			return nil, errors.New("mid: ctx carries no deadline")
		}
		remB.Store(int64(time.Until(dl)))
		resp, err := bcli.CallContext(ctx, 0, req)
		if err != nil {
			return nil, err
		}
		out := append([]byte(nil), resp...)
		bcli.Release(resp)
		return out, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := srvB.Start(); err != nil {
		t.Fatal(err)
	}
	defer srvB.Stop()

	// Tier A: the root client sets the total budget.
	nicA, err := f.CreateNIC(1, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewRpcClient(nicA, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.OpenConnection(2); err != nil {
		t.Fatal(err)
	}

	const total = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), total)
	defer cancel()
	resp, err := cli.CallContext(ctx, 0, []byte("hop"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "hop" {
		t.Fatalf("resp = %q", resp)
	}
	cli.Release(resp)

	b, c := time.Duration(remB.Load()), time.Duration(remC.Load())
	if !(0 < c && c < b && b < total) {
		t.Fatalf("budgets not strictly shrinking: total=%v > mid=%v > leaf=%v > 0 violated", total, b, c)
	}
}

// TestServerShedsExpiredRequests parks a request in the worker queue behind
// an occupied single worker until its budget lapses: the server must shed
// it without invoking the handler, count it, and answer with a shed flag
// the client surfaces as ErrShed. (Worker threading is what makes the
// expiry deterministic: the budget clock starts when the dispatch thread
// opens the request, and the worker queue is where it then ages.)
func TestServerShedsExpiredRequests(t *testing.T) {
	f := fabric.NewFabric()
	nicS, err := f.CreateNIC(2, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRpcThreadedServer(nicS, ServerConfig{Threading: WorkerThreads, Workers: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	if err := srv.Register(0, "occupy", func(_ context.Context, req []byte) ([]byte, error) {
		close(started)
		<-release
		return req, nil
	}); err != nil {
		t.Fatal(err)
	}
	var fastRuns atomic.Int64
	if err := srv.Register(1, "fast", func(_ context.Context, req []byte) ([]byte, error) {
		fastRuns.Add(1)
		return req, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	nicA, err := f.CreateNIC(1, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewRpcClient(nicA, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.OpenConnection(2); err != nil {
		t.Fatal(err)
	}

	// Occupy the server's only worker.
	if err := cli.CallAsync(0, []byte("block"), func(resp []byte, err error) {
		if err == nil {
			cli.Release(resp)
		}
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	// Queue a budgeted request behind it in the worker queue; async, so
	// the shed response (not the client-side deadline) completes the
	// callback.
	shedErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := cli.CallAsyncContext(ctx, 1, []byte("doomed"), func(resp []byte, err error) {
		if err == nil {
			cli.Release(resp)
		}
		shedErr <- err
	}); err != nil {
		t.Fatal(err)
	}

	// Let the budget lapse while the request waits in the worker queue,
	// then free the worker.
	time.Sleep(30 * time.Millisecond)
	close(release)

	select {
	case err := <-shedErr:
		if !errors.Is(err, ErrShed) {
			t.Fatalf("err = %v, want ErrShed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shed response never arrived")
	}
	if got := srv.Shed.Load(); got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}
	if fastRuns.Load() != 0 {
		t.Fatal("handler ran for a request the server should have shed")
	}
	waitPoolsBalanced(t, map[string]*ringbuf.BufPool{
		"client-flow": cli.flow.Buffers(),
		"server-flow": srv.threads[0].flow.Buffers(),
	})
}

// TestCancelPromptnessAndPoolBalance cancels a call whose handler is
// blocked server-side: the client must return context.Canceled promptly
// (long before the handler completes), and once the late response drains,
// every pool's Get/Put loan accounting must balance — cancellation leaks
// no pooled buffers.
func TestCancelPromptnessAndPoolBalance(t *testing.T) {
	f := fabric.NewFabric()
	nicS, err := f.CreateNIC(2, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRpcThreadedServer(nicS, ServerConfig{})
	if err := srv.Register(0, "echo", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	}); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	gate := make(chan struct{})
	if err := srv.Register(1, "gated", func(_ context.Context, req []byte) ([]byte, error) {
		close(entered)
		<-gate
		return req, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	nicA, err := f.CreateNIC(1, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewRpcClient(nicA, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.OpenConnection(2); err != nil {
		t.Fatal(err)
	}

	// Normal traffic first, so the pools carry real loan counts.
	payload := []byte("0123456789abcdef0123456789abcdef0123456789abcdef")
	for i := 0; i < 50; i++ {
		resp, err := cli.Call(0, payload)
		if err != nil {
			t.Fatal(err)
		}
		cli.Release(resp)
	}

	// Cancel a call that is provably mid-flight: the handler has entered
	// and is blocked, so no response can race the abandon.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		resp, err := cli.CallContext(ctx, 1, payload)
		if err == nil {
			cli.Release(resp)
		}
		done <- err
	}()
	<-entered
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
			t.Fatalf("cancel took %v to unblock the call", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled call never returned")
	}
	if cli.Canceled.Load() != 1 {
		t.Fatalf("Canceled = %d, want 1", cli.Canceled.Load())
	}

	// Release the handler; its late response must be repaid to the pool by
	// the receive path (the abandoned caller is gone).
	close(gate)
	waitPoolsBalanced(t, map[string]*ringbuf.BufPool{
		"client-flow": cli.flow.Buffers(),
		"server-flow": srv.threads[0].flow.Buffers(),
	})
}

// TestConcurrentCallCancelCloseStress hammers the abandon/complete
// ownership race from all sides at once — calls with short deadlines,
// asynchronous cancels, and a mid-storm client Close — and relies on the
// race detector (CI runs this under -race) to catch unsynchronized access
// in the pooled call lifecycle.
func TestConcurrentCallCancelCloseStress(t *testing.T) {
	f := fabric.NewFabric()
	nicS, err := f.CreateNIC(2, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRpcThreadedServer(nicS, ServerConfig{Threading: WorkerThreads, Workers: 4})
	if err := srv.Register(0, "echo", func(_ context.Context, req []byte) ([]byte, error) {
		// Stretch some handlers so cancels land mid-call.
		if len(req) > 0 && req[0]%2 == 1 {
			time.Sleep(200 * time.Microsecond)
		}
		return req, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	nicA, err := f.CreateNIC(1, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewRpcClient(nicA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.OpenConnection(2); err != nil {
		t.Fatal(err)
	}

	allowed := func(err error) bool {
		return err == nil ||
			errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, ErrTimeout) ||
			errors.Is(err, ErrClientClose) ||
			errors.Is(err, ErrShed) ||
			errors.Is(err, fabric.ErrRingFull)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var ctx context.Context
				var cancel context.CancelFunc
				if i%2 == 0 {
					ctx, cancel = context.WithTimeout(context.Background(), time.Duration(1+i%4)*time.Millisecond)
				} else {
					ctx, cancel = context.WithCancel(context.Background())
					go func() {
						time.Sleep(time.Duration(i%3) * 150 * time.Microsecond)
						cancel()
					}()
				}
				resp, err := cli.CallContext(ctx, 0, []byte{byte(g), byte(i)})
				if err == nil {
					cli.Release(resp)
				} else if !allowed(err) {
					t.Errorf("unexpected error: %v", err)
				}
				cancel()
			}
		}()
	}
	// Close the client while the storm is in progress.
	time.Sleep(20 * time.Millisecond)
	cli.Close()
	wg.Wait()
}

// TestDoneContextFailsFast pins the pre-issue check: a ctx that is already
// canceled or past its deadline fails the call before anything is sent, and
// counts under Canceled or TimedOut.
func TestDoneContextFailsFast(t *testing.T) {
	cli, _, shutdown := testPair(t, ServerConfig{})
	defer shutdown()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := cli.CallContext(canceled, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: err = %v", err)
	}
	if err := cli.CallAsyncContext(expired, 0, nil, func([]byte, error) { t.Error("callback of a refused call ran") }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: err = %v", err)
	}
	if c, to, iss := cli.Canceled.Load(), cli.TimedOut.Load(), cli.Issued.Load(); c != 1 || to != 1 || iss != 0 {
		t.Fatalf("Canceled, TimedOut, Issued = %d, %d, %d; want 1, 1, 0", c, to, iss)
	}
}
