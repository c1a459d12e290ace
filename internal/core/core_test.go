package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagger/internal/fabric"
)

// testPair builds a client NIC and a started echo server.
func testPair(t testing.TB, cfg ServerConfig) (*RpcClient, *RpcThreadedServer, func()) {
	t.Helper()
	f := fabric.NewFabric()
	cnic, err := f.CreateNIC(1, 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	snic, err := f.CreateNIC(2, 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRpcThreadedServer(snic, cfg)
	if err := srv.Register(0, "echo", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(1, "fail", func(_ context.Context, req []byte) ([]byte, error) {
		return nil, errors.New("boom")
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cli, err := NewRpcClient(cnic, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.OpenConnection(2); err != nil {
		t.Fatal(err)
	}
	return cli, srv, func() {
		cli.Close()
		srv.Stop()
	}
}

func TestSyncCallEcho(t *testing.T) {
	cli, _, shutdown := testPair(t, ServerConfig{})
	defer shutdown()
	resp, err := cli.Call(0, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("ping")) {
		t.Fatalf("resp = %q", resp)
	}
	if cli.Issued.Load() != 1 || cli.Completed.Load() != 1 {
		t.Fatal("counters wrong")
	}
}

func TestSyncCallRemoteError(t *testing.T) {
	cli, srv, shutdown := testPair(t, ServerConfig{})
	defer shutdown()
	_, err := cli.Call(1, nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if srv.Errors.Load() != 1 {
		t.Fatal("server error counter")
	}
}

func TestCallUnknownFunction(t *testing.T) {
	cli, _, shutdown := testPair(t, ServerConfig{})
	defer shutdown()
	_, err := cli.Call(42, nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v", err)
	}
}

func TestAsyncCallCompletion(t *testing.T) {
	cli, _, shutdown := testPair(t, ServerConfig{})
	defer shutdown()
	done := make(chan []byte, 1)
	err := cli.CallAsync(0, []byte("async"), func(resp []byte, err error) {
		if err != nil {
			t.Errorf("async err: %v", err)
		}
		done <- resp
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-done:
		if !bytes.Equal(resp, []byte("async")) {
			t.Fatalf("resp = %q", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("async callback never fired")
	}
	// The completion queue accumulated it too.
	if cli.CompletionQueue().Len() != 1 {
		t.Fatal("completion queue missed the completion")
	}
}

func TestCompletionQueuePoll(t *testing.T) {
	cli, _, shutdown := testPair(t, ServerConfig{})
	defer shutdown()
	const n = 10
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := cli.CallAsync(0, []byte{byte(i)}, func([]byte, error) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	got := 0
	for _, batch := range [][]Completion{cli.CompletionQueue().Poll(3), cli.CompletionQueue().Poll(0)} {
		got += len(batch)
	}
	if got != n {
		t.Fatalf("polled %d completions, want %d", got, n)
	}
	if cli.CompletionQueue().Len() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestWorkerThreadingModel(t *testing.T) {
	cli, srv, shutdown := testPair(t, ServerConfig{Threading: WorkerThreads, Workers: 4})
	defer shutdown()
	resp, err := cli.Call(0, []byte("via-worker"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("via-worker")) {
		t.Fatal("payload mismatch")
	}
	if srv.Handled.Load() != 1 {
		t.Fatal("handled counter")
	}
}

// Long-running handlers must not block other requests under WorkerThreads,
// but do serialize under DispatchThreads — the paper's Table 4 effect.
func TestThreadingModelConcurrency(t *testing.T) {
	run := func(cfg ServerConfig) time.Duration {
		f := fabric.NewFabric()
		cnic, _ := f.CreateNIC(1, 4, 256)
		snic, _ := f.CreateNIC(2, 1, 256) // single dispatch thread
		srv := NewRpcThreadedServer(snic, cfg)
		_ = srv.Register(0, "slow", func(_ context.Context, req []byte) ([]byte, error) {
			time.Sleep(20 * time.Millisecond)
			return req, nil
		})
		_ = srv.Start()
		defer srv.Stop()
		pool, err := NewRpcClientPool(cnic, 4)
		if err != nil {
			panic(err)
		}
		defer pool.Close()
		if _, err := pool.ConnectAll(2); err != nil {
			panic(err)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := pool.Client(i).Call(0, []byte("x")); err != nil {
					t.Errorf("call: %v", err)
				}
			}(i)
		}
		wg.Wait()
		return time.Since(start)
	}
	dispatch := run(ServerConfig{Threading: DispatchThreads})
	worker := run(ServerConfig{Threading: WorkerThreads, Workers: 4})
	if dispatch < 70*time.Millisecond {
		t.Errorf("dispatch threading should serialize 4x20ms handlers, took %v", dispatch)
	}
	if worker > 60*time.Millisecond {
		t.Errorf("worker threading should overlap handlers, took %v", worker)
	}
}

func TestTimeout(t *testing.T) {
	f := fabric.NewFabric()
	cnic, _ := f.CreateNIC(1, 1, 16)
	snic, _ := f.CreateNIC(2, 1, 16)
	srv := NewRpcThreadedServer(snic, ServerConfig{})
	_ = srv.Register(0, "stall", func(_ context.Context, req []byte) ([]byte, error) {
		time.Sleep(500 * time.Millisecond)
		return req, nil
	})
	_ = srv.Start()
	defer srv.Stop()
	cli, _ := NewRpcClient(cnic, 0)
	defer cli.Close()
	_, _ = cli.OpenConnection(2)
	cli.SetTimeout(30 * time.Millisecond)
	_, err := cli.Call(0, nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if cli.TimedOut.Load() != 1 {
		t.Fatal("timeout counter")
	}
}

func TestCallWithoutConnection(t *testing.T) {
	f := fabric.NewFabric()
	cnic, _ := f.CreateNIC(1, 1, 16)
	cli, _ := NewRpcClient(cnic, 0)
	defer cli.Close()
	if _, err := cli.Call(0, nil); err == nil {
		t.Fatal("call without connection succeeded")
	}
	if err := cli.CloseConnection(5); err == nil {
		t.Fatal("closing unopened connection succeeded")
	}
}

func TestMultipleConnectionsSRQ(t *testing.T) {
	// One client, connections to two different servers sharing its ring.
	f := fabric.NewFabric()
	cnic, _ := f.CreateNIC(1, 1, 256)
	mk := func(addr uint32, tag string) *RpcThreadedServer {
		snic, _ := f.CreateNIC(addr, 1, 256)
		srv := NewRpcThreadedServer(snic, ServerConfig{})
		_ = srv.Register(0, "tag", func(_ context.Context, req []byte) ([]byte, error) {
			return []byte(tag + string(req)), nil
		})
		_ = srv.Start()
		return srv
	}
	s1 := mk(10, "one:")
	defer s1.Stop()
	s2 := mk(20, "two:")
	defer s2.Stop()
	cli, _ := NewRpcClient(cnic, 0)
	defer cli.Close()
	c1, _ := cli.OpenConnection(10)
	c2, _ := cli.OpenConnection(20)
	r1, err := cli.CallConn(c1, 0, []byte("a"))
	if err != nil || string(r1) != "one:a" {
		t.Fatalf("conn1: %q %v", r1, err)
	}
	r2, err := cli.CallConn(c2, 0, []byte("b"))
	if err != nil || string(r2) != "two:b" {
		t.Fatalf("conn2: %q %v", r2, err)
	}
}

func TestPoolParallelClients(t *testing.T) {
	f := fabric.NewFabric()
	cnic, _ := f.CreateNIC(1, 8, 1024)
	snic, _ := f.CreateNIC(2, 8, 1024)
	srv := NewRpcThreadedServer(snic, ServerConfig{})
	_ = srv.Register(0, "echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
	_ = srv.Start()
	defer srv.Stop()
	pool, err := NewRpcClientPool(cnic, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.ConnectAll(2); err != nil {
		t.Fatal(err)
	}
	var total atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < pool.Size(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				msg := []byte(fmt.Sprintf("c%d-%d", i, j))
				resp, err := pool.Client(i).Call(0, msg)
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				if !bytes.Equal(resp, msg) {
					t.Errorf("client %d: cross-talk %q != %q", i, resp, msg)
					return
				}
				total.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if total.Load() != 1600 {
		t.Fatalf("completed %d, want 1600", total.Load())
	}
}

func TestPoolValidation(t *testing.T) {
	f := fabric.NewFabric()
	cnic, _ := f.CreateNIC(1, 2, 16)
	if _, err := NewRpcClientPool(cnic, 0); err == nil {
		t.Fatal("zero-size pool accepted")
	}
	if _, err := NewRpcClientPool(cnic, 3); err == nil {
		t.Fatal("pool larger than NIC flows accepted")
	}
}

func TestServerRegistrationRules(t *testing.T) {
	f := fabric.NewFabric()
	snic, _ := f.CreateNIC(2, 1, 16)
	srv := NewRpcThreadedServer(snic, ServerConfig{})
	if err := srv.Register(0, "a", func(context.Context, []byte) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(0, "b", func(context.Context, []byte) ([]byte, error) { return nil, nil }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if srv.FunctionName(0) != "a" {
		t.Fatal("function name lookup")
	}
	_ = srv.Start()
	defer srv.Stop()
	if err := srv.Register(1, "late", func(context.Context, []byte) ([]byte, error) { return nil, nil }); err == nil {
		t.Fatal("registration after start accepted")
	}
	if err := srv.Start(); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestClientCloseUnblocksCalls(t *testing.T) {
	f := fabric.NewFabric()
	cnic, _ := f.CreateNIC(1, 1, 16)
	snic, _ := f.CreateNIC(2, 1, 16)
	srv := NewRpcThreadedServer(snic, ServerConfig{})
	release := make(chan struct{})
	never := func(_ context.Context, req []byte) ([]byte, error) {
		<-release
		return nil, nil
	}
	_ = srv.Register(0, "never", never)
	_ = srv.Register(7, "never7", never)
	_ = srv.Start()
	defer srv.Stop()
	defer close(release)
	cli, _ := NewRpcClient(cnic, 0)
	_, _ = cli.OpenConnection(2)
	cli.SetTimeout(0)
	errCh := make(chan error, 1)
	go func() {
		_, err := cli.Call(0, nil)
		errCh <- err
	}()
	// An async call pending at Close completes with ErrClientClose before
	// Close returns: the CompletionQueue entry, then the callback.
	var asyncErrs []error
	if err := cli.CallAsync(7, nil, func(_ []byte, err error) {
		if cli.CompletionQueue().Len() != 1 {
			t.Error("callback ran before the completion was enqueued")
		}
		asyncErrs = append(asyncErrs, err)
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	cli.Close()
	if len(asyncErrs) != 1 || !errors.Is(asyncErrs[0], ErrClientClose) {
		t.Fatalf("async callback errors after Close = %v, want [ErrClientClose]", asyncErrs)
	}
	if cs := cli.CompletionQueue().Poll(0); len(cs) != 1 || cs[0].FnID != 7 || !errors.Is(cs[0].Err, ErrClientClose) {
		t.Fatalf("completions after Close = %+v, want one fn-7 ErrClientClose", cs)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClientClose) {
			t.Fatalf("err = %v, want ErrClientClose", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call not unblocked by Close")
	}
	if _, err := cli.Call(0, nil); !errors.Is(err, ErrClientClose) {
		t.Fatal("call after close should fail")
	}
	if err := cli.CallAsync(0, nil, func([]byte, error) { t.Error("callback of a refused call ran") }); !errors.Is(err, ErrClientClose) {
		t.Fatalf("async call after close: err = %v, want ErrClientClose", err)
	}
	cli.Close() // idempotent: completes nothing twice
	if len(asyncErrs) != 1 {
		t.Fatalf("second Close re-ran callbacks: %v", asyncErrs)
	}
}

// TestCloseCompletesAsyncExactlyOnce races Close against issuing goroutines:
// every CallAsync either returns an error or runs its callback, never both
// and never neither, so a fan-out that counts both ways balances.
func TestCloseCompletesAsyncExactlyOnce(t *testing.T) {
	cli, _, shutdown := testPair(t, ServerConfig{})
	defer shutdown()
	var attempts, reported atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				attempts.Add(1)
				err := cli.CallAsync(0, []byte("x"), func([]byte, error) { reported.Add(1) })
				if err != nil {
					reported.Add(1)
				}
				if errors.Is(err, ErrClientClose) {
					return
				}
			}
		}()
	}
	for attempts.Load() < 500 {
		runtime.Gosched()
	}
	cli.Close()
	wg.Wait()
	if a, r := attempts.Load(), reported.Load(); a != r {
		t.Fatalf("%d async calls issued, %d reported (error or callback)", a, r)
	}
}

func TestServerThreadCounters(t *testing.T) {
	cli, srv, shutdown := testPair(t, ServerConfig{})
	defer shutdown()
	for i := 0; i < 5; i++ {
		if _, err := cli.Call(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	var sum uint64
	for _, th := range srv.threads {
		sum += th.Processed.Load()
	}
	if sum != 5 {
		t.Fatalf("thread processed sum = %d, want 5", sum)
	}
}
