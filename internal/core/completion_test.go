package core

import (
	"sync"
	"testing"
)

// TestCompletionQueueConcurrentPollPush hammers the CompletionQueue — the
// linchpin of the asynchronous RPC path (§4.2) — with concurrent producers
// (the receive path calling complete) and consumers (application threads
// calling Poll with assorted batch sizes, plus Len/Total readers). Run
// under -race in CI, it must deliver every completion exactly once.
func TestCompletionQueueConcurrentPollPush(t *testing.T) {
	const (
		producers     = 4
		perProducer   = 5000
		pollers       = 4
		totalExpected = producers * perProducer
	)
	q := NewCompletionQueue()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.complete(Completion{
					RPCID: uint64(p*perProducer + i + 1),
					FnID:  uint16(p),
				})
			}
		}(p)
	}

	var (
		mu       sync.Mutex
		received = make(map[uint64]bool, totalExpected)
		dupes    int
	)
	done := make(chan struct{})
	var pollWG sync.WaitGroup
	for c := 0; c < pollers; c++ {
		pollWG.Add(1)
		go func(batch int) {
			defer pollWG.Done()
			for {
				got := q.Poll(batch)
				if len(got) == 0 {
					select {
					case <-done:
						// Final drain: producers are finished, so one empty
						// poll after done means the queue is dry.
						if got := q.Poll(0); len(got) == 0 {
							return
						} else {
							record(&mu, received, &dupes, got)
						}
					default:
					}
					continue
				}
				record(&mu, received, &dupes, got)
			}
		}(c * 7) // batch sizes 0 (drain-all), 7, 14, 21
	}

	wg.Wait()
	close(done)
	pollWG.Wait()

	if dupes != 0 {
		t.Fatalf("%d completions delivered more than once", dupes)
	}
	if len(received) != totalExpected {
		t.Fatalf("received %d distinct completions, want %d", len(received), totalExpected)
	}
	if got := q.Total(); got != totalExpected {
		t.Fatalf("Total() = %d, want %d", got, totalExpected)
	}
	if got := q.Len(); got != 0 {
		t.Fatalf("Len() = %d after full drain, want 0", got)
	}
}

func record(mu *sync.Mutex, received map[uint64]bool, dupes *int, got []Completion) {
	mu.Lock()
	defer mu.Unlock()
	for _, c := range got {
		if received[c.RPCID] {
			*dupes++
		}
		received[c.RPCID] = true
	}
}

// TestCompletionQueuePollBatchBounds checks Poll's batching contract: a
// positive max bounds the batch, zero or negative drains everything, and
// order is preserved.
func TestCompletionQueuePollBatchBounds(t *testing.T) {
	q := NewCompletionQueue()
	for i := 1; i <= 10; i++ {
		q.complete(Completion{RPCID: uint64(i)})
	}
	if got := q.Poll(3); len(got) != 3 || got[0].RPCID != 1 || got[2].RPCID != 3 {
		t.Fatalf("Poll(3) = %+v, want RPCIDs 1..3", got)
	}
	if got := q.Poll(-1); len(got) != 7 || got[0].RPCID != 4 || got[6].RPCID != 10 {
		t.Fatalf("Poll(-1) = %+v, want RPCIDs 4..10", got)
	}
	if got := q.Poll(0); len(got) != 0 {
		t.Fatalf("Poll(0) on empty queue = %+v, want empty", got)
	}
}
