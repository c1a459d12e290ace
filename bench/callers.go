package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"time"

	"dagger/internal/core"
	"dagger/internal/kvs/mica"
	"dagger/internal/workload"
)

// syncCaller is one microservice tier waiting for each reply: Call, compare
// the echo byte for byte, Release.
type syncCaller struct {
	cli      *core.RpcClient
	index    uint64 // caller index, the low byte of every request id
	sink     traceSink
	payloads [][]byte
	seq      uint64
}

func (c *syncCaller) run(limit int, rec *recorder) {
	traced := c.sink.st.on.Load()
	end := rec.end()
	for n := 0; n < limit; n++ {
		req := c.payloads[c.seq%echoRing]
		c.seq++
		id := c.seq<<8 | c.index
		binary.LittleEndian.PutUint64(req[idOff:], id)
		t0 := now()
		if t0 >= end {
			break
		}
		rec.begin(t0)
		rec.attempted++
		resp, err := c.cli.Call(fnEcho, req)
		ok := err == nil && bytes.Equal(resp, req)
		t1 := now()
		c.cli.Release(resp)
		if !ok {
			rec.failed++
			continue
		}
		rec.observe(t0, t1-t0, 1)
		if traced {
			c.sink.note(id, t0, t1)
		}
	}
	rec.begin(now())
}

// pipelinedCaller keeps pipelineWindow CallAsync outstanding on one
// connection. Replies are timed and verified in the completion callback (the
// client's receive goroutine, which therefore owns the recorder); the issuer
// polls the CompletionQueue and releases the reply buffers. An issuer that
// runs out of slots sleeps until half the window is free again, so it is
// woken once per half window, not once per reply.
type pipelinedCaller struct {
	cli      *core.RpcClient
	sink     traceSink
	payloads [][]byte
	seq      uint64

	slots  [pipelineWindow]pipeSlot
	free   chan int      // free slot indices; capacity pipelineWindow, one token per slot
	need   atomic.Int32  // free slots a sleeping issuer waits for; 0 = awake
	wake   chan struct{} // capacity 1: a wake-up is pending or not
	cbDone atomic.Uint64
	polled uint64
	rec    *recorder // set per run, read by the callback
	traced bool
	cb     func([]byte, error)
}

type pipeSlot struct {
	req    []byte
	issued int64
}

func newPipelinedCaller(cli *core.RpcClient, st *stamps, payloads [][]byte) *pipelinedCaller {
	p := &pipelinedCaller{
		cli: cli, sink: traceSink{st: st}, payloads: payloads,
		free: make(chan int, pipelineWindow), wake: make(chan struct{}, 1),
	}
	for i := range p.slots {
		p.slots[i].req = make([]byte, len(payloads[0]))
		p.free <- i
	}
	p.cb = p.onReply
	return p
}

// onReply runs on the client's receive goroutine. The reply buffer also sits
// in the CompletionQueue, which enqueues before invoking the callback; the
// issuer only polls entries whose callback has finished (cbDone), so the
// buffer cannot be released and reused under this function.
func (p *pipelinedCaller) onReply(resp []byte, err error) {
	t1 := now()
	slot := -1
	if err == nil && len(resp) >= bodyOff {
		slot = int(binary.LittleEndian.Uint16(resp[slotOff:]))
	}
	if slot < 0 || slot >= pipelineWindow || !bytes.Equal(resp, p.slots[slot].req) {
		// The slot cannot be identified, so it never comes home; the
		// issuer counts it as failed when it closes the window.
		p.cbDone.Add(1)
		return
	}
	t0 := p.slots[slot].issued
	p.rec.begin(t1)
	p.rec.observe(t1, t1-t0, 1)
	if p.traced {
		p.sink.note(binary.LittleEndian.Uint64(resp[idOff:]), t0, t1)
	}
	p.cbDone.Add(1)
	select {
	case p.free <- slot:
	default: // only after a failed window was refilled; never block the receive path
	}
	if need := int(p.need.Load()); need > 0 && len(p.free) >= need {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// drain polls the completions whose callbacks have finished and releases
// their buffers.
func (p *pipelinedCaller) drain() {
	n := int(p.cbDone.Load() - p.polled)
	if n == 0 {
		return
	}
	for _, c := range p.cli.CompletionQueue().Poll(n) {
		p.cli.Release(c.Resp)
		p.polled++
	}
}

// waitFree sleeps until at least min slots are free, at most callTimeout.
func (p *pipelinedCaller) waitFree(min int) bool {
	if len(p.free) >= min {
		return true
	}
	p.need.Store(int32(min))
	defer p.need.Store(0)
	t := time.NewTimer(callTimeout)
	defer t.Stop()
	for len(p.free) < min { // re-checked after publishing need: no lost wake-up
		select {
		case <-p.wake:
		case <-t.C:
			return len(p.free) >= min
		}
	}
	return true
}

func (p *pipelinedCaller) run(limit int, rec *recorder) {
	p.rec, p.traced = rec, p.sink.st.on.Load()
	end := rec.end()
	for n := 0; n < limit; n++ {
		if len(p.free) == 0 && !p.waitFree(pipelineWindow/2) {
			break // window starved for callTimeout: replies are missing
		}
		slot := <-p.free
		t0 := now()
		if t0 >= end {
			p.free <- slot
			break
		}
		s := &p.slots[slot]
		p.seq++
		copy(s.req, p.payloads[p.seq%echoRing])
		binary.LittleEndian.PutUint64(s.req[idOff:], p.seq<<8)
		binary.LittleEndian.PutUint16(s.req[slotOff:], uint16(slot))
		s.issued = t0
		rec.attempted++
		if err := p.cli.CallAsync(fnEcho, s.req, p.cb); err != nil {
			rec.failed++
			p.free <- slot
		}
		if n%pipelineWindow == pipelineWindow-1 {
			p.drain()
		}
	}
	// Close the window quiescent: every slot home. One that is not within
	// callTimeout is a reply that was lost or wrong.
	p.waitFree(pipelineWindow)
	rec.failed += uint64(pipelineWindow - len(p.free))
	p.drain()
	for len(p.free) > 0 {
		<-p.free
	}
	for i := 0; i < pipelineWindow; i++ {
		p.free <- i
	}
	rec.begin(now())
}

// kvCaller drives the MICA port through the repository's own client stub and
// checks every GET against the value it last wrote (one caller, so the store
// is sequentially consistent with this map).
type kvCaller struct {
	mc      *mica.Client
	ops     *kvOps
	expect  []byte // kvDataset.ValueSize bytes per record
	key     []byte
	pos     int
	replies uint64 // successful calls: each left one reply buffer with the stub
}

func newKVCaller(cli *core.RpcClient, store *mica.Store, seed int64, getPct float64) (*kvCaller, error) {
	k := &kvCaller{
		mc:     mica.NewClient(cli),
		ops:    kvInputs(seed, getPct),
		expect: make([]byte, kvRecords*kvDataset.ValueSize),
		key:    make([]byte, kvDataset.KeySize),
	}
	return k, populate(store, seed, k.expect)
}

func (k *kvCaller) want(rec uint32) []byte {
	return k.expect[int(rec)*kvDataset.ValueSize : int(rec+1)*kvDataset.ValueSize]
}

func (k *kvCaller) run(limit int, rec *recorder) {
	end := rec.end()
	for n := 0; n < limit; n++ {
		i := k.pos % kvOpsLen
		k.pos++
		op := k.ops.ops[i]
		key := workload.KeyForRecord(kvDataset, uint64(op.rec), k.key)
		t0 := now()
		if t0 >= end {
			break
		}
		rec.begin(t0)
		rec.attempted++
		ok := true
		if op.set {
			val := k.ops.value(i)
			if err := k.mc.Set(key, val); err != nil {
				ok = false
			} else {
				copy(k.want(op.rec), val)
			}
		} else {
			got, err := k.mc.Get(key)
			switch {
			case errors.Is(err, mica.ErrNotFound):
				// A legitimate loss of MICA's lossy index or circular log;
				// reported as kvs.miss_frac, and the run is incorrect if it
				// reaches 1 %.
				rec.misses++
			case err != nil || !bytes.Equal(got, k.want(op.rec)):
				ok = false
			}
		}
		t1 := now()
		if !ok {
			rec.failed++
			continue
		}
		k.replies++
		rec.observe(t0, t1-t0, 1)
		if op.set {
			rec.set.add(t1 - t0)
		} else {
			rec.get.add(t1 - t0)
		}
	}
	rec.begin(now())
}
