package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagger/internal/fabric"
	"dagger/internal/sim"
	"dagger/internal/trace"
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
	if cli.CompletionQueue().Total() != 1 {
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
	_ = srv.Register(0, "never", func(_ context.Context, req []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
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
	time.Sleep(20 * time.Millisecond)
	cli.Close()
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
	for _, th := range srv.Threads() {
		sum += th.Processed.Load()
	}
	if sum != 5 {
		t.Fatalf("thread processed sum = %d, want 5", sum)
	}
}

func TestServerTracing(t *testing.T) {
	f := fabric.NewFabric()
	cnic, _ := f.CreateNIC(1, 1, 64)
	snic, _ := f.CreateNIC(2, 1, 64)
	srv := NewRpcThreadedServer(snic, ServerConfig{Threading: WorkerThreads, Workers: 2})
	_ = srv.Register(0, "slowop", func(_ context.Context, req []byte) ([]byte, error) {
		time.Sleep(2 * time.Millisecond)
		return req, nil
	})
	_ = srv.Register(1, "fastop", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
	tc := trace.NewCollector(0)
	if err := srv.SetTracer(tc); err != nil {
		t.Fatal(err)
	}
	_ = srv.Start()
	defer srv.Stop()
	if err := srv.SetTracer(tc); err == nil {
		t.Fatal("SetTracer after Start accepted")
	}
	cli, _ := NewRpcClient(cnic, 0)
	defer cli.Close()
	_, _ = cli.OpenConnection(2)
	for i := 0; i < 5; i++ {
		if _, err := cli.Call(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Call(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// The server records each span after sending its response, so the last
	// spans may land after the final call has returned.
	spans := func() (n int) {
		traces, _ := tc.Snapshot()
		for _, tr := range traces {
			n += len(tr.Spans)
		}
		return n
	}
	for deadline := time.Now().Add(2 * time.Second); spans() < 10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	rep := tc.Analyze()
	if rep.Bottleneck() != "slowop" {
		t.Fatalf("bottleneck = %q, want slowop\n%s", rep.Bottleneck(), rep)
	}
	var slow, fast *trace.ServiceProfile
	for i := range rep.Profiles {
		switch rep.Profiles[i].Service {
		case "slowop":
			slow = &rep.Profiles[i]
		case "fastop":
			fast = &rep.Profiles[i]
		}
	}
	if slow == nil || fast == nil {
		t.Fatal("profiles missing")
	}
	if slow.Spans != 5 || fast.Spans != 5 {
		t.Fatalf("span counts: slow=%d fast=%d", slow.Spans, fast.Spans)
	}
	if slow.MeanBusy() < sim.Time(time.Millisecond) {
		t.Fatalf("slow op mean busy = %v, want >= 1ms", slow.MeanBusy())
	}
}
