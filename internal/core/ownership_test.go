package core

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dagger/internal/fabric"
	"dagger/internal/ringbuf"
	"dagger/internal/wire"
)

// Regression tests for pooled-buffer ownership on the RPC receive path:
// every pooled payload loan must be repaid on every path, which the tests
// assert through the pool's Get/Put loan counters.

func ownershipPool() *ringbuf.BufPool {
	return ringbuf.NewBufPool(8, nil, wire.MaxFrameSize)
}

// TestOpenFrameIgnoresTrailingLine covers a frame longer than its message:
// the bytes past the message's last line are not parsed, so a garbage
// trailing line neither fails the open nor costs a second loan.
func TestOpenFrameIgnoresTrailingLine(t *testing.T) {
	pool := ownershipPool()
	msg := &wire.Message{
		Header:  wire.Header{Kind: wire.KindRequest, RPCID: 7},
		Payload: []byte("payload"),
	}
	frame, err := wire.MarshalAppend(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	frame = append(frame, make([]byte, wire.CacheLineSize)...)

	m, err := wire.OpenFrame(frame, pool)
	if err != nil {
		t.Fatalf("OpenFrame: %v", err)
	}
	if m.RPCID != 7 || !bytes.Equal(m.Payload, msg.Payload) {
		t.Fatalf("OpenFrame delivered RPCID=%d payload=%q", m.RPCID, m.Payload)
	}
	// Repay the delivered payload, as the dispatch loop does once it is done.
	pool.Put(m.Payload)
	if gets, puts := pool.Loans(); gets != 1 || puts != 1 {
		t.Fatalf("pool loans after one open: gets=%d puts=%d, want 1/1", gets, puts)
	}
}

// TestOpenFrameErrorTakesNoLoan covers the error paths the receive loops
// skip without a repayment: a frame too short for its message and a frame
// whose header checksum fails must both return before borrowing a buffer.
func TestOpenFrameErrorTakesNoLoan(t *testing.T) {
	frame, err := wire.MarshalAppend(nil, &wire.Message{
		Header:  wire.Header{Kind: wire.KindRequest, RPCID: 9},
		Payload: bytes.Repeat([]byte("x"), 200),
	})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), frame...)
	wire.FlipCoveredBit(corrupt, 100) // a bit of the RPC ID
	for _, c := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"short", frame[:len(frame)-wire.CacheLineSize], wire.ErrShortBuffer},
		{"bad checksum", corrupt, wire.ErrBadChecksum},
	} {
		pool := ownershipPool()
		m, err := wire.OpenFrame(c.frame, pool)
		if !errors.Is(err, c.want) || m.Payload != nil {
			t.Fatalf("%s: OpenFrame err=%v payload=%d B, want %v and no payload", c.name, err, len(m.Payload), c.want)
		}
		if gets, puts := pool.Loans(); gets != 0 || puts != 0 {
			t.Fatalf("%s: error path took a loan: gets=%d puts=%d", c.name, gets, puts)
		}
	}
}

// TestStopDrainsWorkerQueue covers the shutdown path of the WorkerThreads
// model: requests parked in the dispatch->worker queue when Stop is called
// still hold payload loans, which Stop must drain and repay so the server's
// flow pool balances.
func TestStopDrainsWorkerQueue(t *testing.T) {
	fab := fabric.NewFabric()
	clientNIC, err := fab.CreateNIC(0x0A000001, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	serverNIC, err := fab.CreateNIC(0x0A000002, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	srv := NewRpcThreadedServer(serverNIC, ServerConfig{
		Threading: WorkerThreads,
		Workers:   1,
	})
	var entered atomic.Int32
	err = srv.Register(0, "block", func(ctx context.Context, req []byte) ([]byte, error) {
		entered.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	cli, err := NewRpcClient(clientNIC, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.OpenConnection(0x0A000002); err != nil {
		t.Fatal(err)
	}

	// One request occupies the single worker (blocked in the handler); the
	// rest pile up in the worker queue.
	const requests = 4
	for i := 0; i < requests; i++ {
		if err := cli.CallAsync(0, []byte("ping"), func([]byte, error) {}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for entered.Load() < 1 || len(srv.work) < requests-1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: entered=%d queued=%d", entered.Load(), len(srv.work))
		}
		time.Sleep(time.Millisecond)
	}

	// Stop cancels the blocked handler, stops the worker and dispatch
	// threads, and must repay the loans of every request still parked in the
	// queue.
	srv.Stop()

	fl, err := serverNIC.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	if gets, puts := fl.Buffers().Loans(); gets != puts {
		t.Fatalf("server flow pool unbalanced after Stop: gets=%d puts=%d", gets, puts)
	}
}

// TestStopRepaysEveryParkedRequest pins both shutdown repayments of the
// WorkerThreads model without a worker to race them: a one-slot queue holds
// the first request, so the dispatch loop is parked at the enqueue of the
// second when the server stops. The loop must repay the second (its
// shutdown branch) and Stop the first (its queue drain).
func TestStopRepaysEveryParkedRequest(t *testing.T) {
	fab := fabric.NewFabric()
	clientNIC, err := fab.CreateNIC(0x0A000001, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	serverNIC, err := fab.CreateNIC(0x0A000002, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRpcThreadedServer(serverNIC, ServerConfig{Threading: WorkerThreads})
	srv.work = make(chan workItem, 1)
	srv.wg.Add(1)
	go srv.dispatchLoop(srv.threads[0])

	pool := srv.threads[0].flow.Buffers()
	before, _ := pool.Loans()
	for id := uint64(1); id <= 2; id++ {
		req := wire.Message{
			Header:  wire.Header{Kind: wire.KindRequest, ConnID: 1, RPCID: id, SrcAddr: 0x0A000001, DstAddr: 0x0A000002},
			Payload: []byte("ping"),
		}
		if err := clientNIC.Send(&req); err != nil {
			t.Fatal(err)
		}
	}
	// Each request lends its frame (Send) and its payload (OpenFrame); the
	// fourth loan is the second request's payload, opened after the first
	// was queued.
	deadline := time.Now().Add(5 * time.Second)
	for gets, _ := pool.Loans(); gets < before+4; gets, _ = pool.Loans() {
		if time.Now().After(deadline) {
			t.Fatal("dispatch loop never opened the second request")
		}
		time.Sleep(time.Millisecond)
	}

	srv.Stop()
	if gets, puts := pool.Loans(); gets != puts {
		t.Fatalf("server flow pool unbalanced after Stop: gets=%d puts=%d", gets, puts)
	}
}
