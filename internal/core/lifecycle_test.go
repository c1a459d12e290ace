package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"dagger/internal/fabric"
	"dagger/internal/wire"
)

// lifeStep is one event that can end, or try to end, a call.
type lifeStep byte

const (
	stepResp  lifeStep = 'R' // the response arrives (deliver)
	stepDup   lifeStep = 'D' // a second copy of the response arrives
	stepGive  lifeStep = 'G' // the sync caller gives up (settle with its reason)
	stepClose lifeStep = 'C' // Close
	stepSend  lifeStep = 'S' // Send fails (the model's name for issue's claim)
)

// lifeKind is how the server answered.
type lifeKind struct {
	name  string
	flags uint8
	err   error // nil: the payload is the result
}

var lifeKinds = []lifeKind{
	{"ok", 0, nil},
	{"shed", flagShed, ErrShed},
	{"dead", wire.FlagDead, ErrPeerDead},
	{"remote", flagError, ErrRemote},
}

// lifeOrder is one order of the steps that end one call.
type lifeOrder struct {
	sync     bool
	steps    []lifeStep
	inSend   int // steps[:inSend] run inside Send, from the fabric's gateway
	sendFail bool
	kind     lifeKind
	giveUp   error // the give-up's reason when steps holds stepGive
}

func (o lifeOrder) String() string {
	mode, fail := "async", ""
	if o.sync {
		mode = "sync"
	}
	if o.sendFail {
		fail = "-fail"
	}
	give := ""
	if o.giveUp != nil {
		give = "-" + map[error]string{ErrTimeout: "timeout", context.Canceled: "cancel"}[o.giveUp]
	}
	return fmt.Sprintf("%s-%s%s/%s[send%s]%s", mode, o.kind.name, give,
		string(o.steps[:o.inSend]), fail, string(o.steps[o.inSend:]))
}

// lifeOrders enumerates every order of a call's ending steps: each
// permutation of response, duplicate, Close and (sync only) give-up, with
// the duplicate after the response; every split of the steps before the
// give-up into those that run during Send and those after it; Send failing
// or not; every response kind and give-up reason.
func lifeOrders() []lifeOrder {
	var out []lifeOrder
	for _, sync := range []bool{true, false} {
		sets := [][]lifeStep{{stepResp, stepDup, stepClose}}
		if sync {
			sets = append(sets, []lifeStep{stepResp, stepDup, stepGive, stepClose})
		}
		for _, set := range sets {
			gives := []error{nil}
			if slices.Contains(set, stepGive) {
				gives = []error{ErrTimeout, context.Canceled}
			}
			for _, steps := range permuteSteps(set) {
				if slices.Index(steps, stepDup) < slices.Index(steps, stepResp) {
					continue
				}
				// A caller only gives up once issue has returned.
				maxIn := slices.Index(steps, stepGive)
				if maxIn < 0 {
					maxIn = len(steps)
				}
				for inSend := 0; inSend <= maxIn; inSend++ {
					for _, fail := range []bool{false, true} {
						for _, kind := range lifeKinds {
							for _, give := range gives {
								out = append(out, lifeOrder{sync, steps, inSend, fail, kind, give})
							}
						}
					}
				}
			}
		}
	}
	return out
}

func permuteSteps(set []lifeStep) [][]lifeStep {
	if len(set) <= 1 {
		return [][]lifeStep{slices.Clone(set)}
	}
	var out [][]lifeStep
	for i, s := range set {
		rest := slices.Delete(slices.Clone(set), i, i+1)
		for _, p := range permuteSteps(rest) {
			out = append(out, append([]lifeStep{s}, p...))
		}
	}
	return out
}

// lifeResult is what one order's run observed, for the coverage asserts.
type lifeResult struct {
	won      lifeStep // the step that ended the call
	lostGive bool     // a give-up ran after another step had ended the call
}

// TestCallLifecycle runs every order of the steps that can end a call
// (response of each kind, duplicate response, give-up, Close, send failure)
// for one sync and one async call. The test calls issue, deliver, settle and
// Close itself, and steps inside Send run from a gateway that Send calls
// synchronously, so no order depends on the scheduler. In every order the
// call reports exactly once with the outcome of the step that ended it, the
// flow pool and the window return to balance, each response that finds its
// call ended counts once in Late, and the CompletionQueue holds exactly the
// async completions, each entered before its callback ran.
func TestCallLifecycle(t *testing.T) {
	orders := lifeOrders()
	var lostToResp, lostToClose, sendFailAfterClose int
	for _, o := range orders {
		t.Run(o.String(), func(t *testing.T) {
			r := runLifeOrder(t, o)
			switch {
			case r.lostGive && r.won == stepResp:
				lostToResp++
			case r.lostGive && r.won == stepClose:
				lostToClose++
			}
			if o.sendFail && r.won == stepClose && slices.Contains(o.steps[:o.inSend], stepClose) {
				sendFailAfterClose++
			}
		})
	}
	t.Logf("ran %d orders: %d give-ups lost to a response, %d to Close; %d send failures after Close",
		len(orders), lostToResp, lostToClose, sendFailAfterClose)
	if lostToResp == 0 || lostToClose == 0 || sendFailAfterClose == 0 {
		t.Fatal("the orders miss a give-up that loses, or a send failure after Close")
	}
}

type lifeReport struct {
	resp []byte
	err  error
}

func runLifeOrder(t *testing.T, o lifeOrder) lifeResult {
	f := fabric.NewFabric()
	nic, err := f.CreateNIC(1, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer nic.Close()
	cli, err := NewRpcClient(nic, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// No NIC has address 9, so Send hands the request to the gateway.
	conn, err := cli.OpenConnection(9)
	if err != nil {
		t.Fatal(err)
	}
	pool := cli.flow.Buffers()
	errSend := errors.New("send failed")

	var (
		res      lifeResult
		id       uint64 // the call's RPC id, read from its request frame
		cl       *call  // the sync call issue returned, until it settles
		reports  []lifeReport
		wantLate uint64
	)
	// end records that step s tried to end the call, the model: the first
	// step to try wins.
	end := func(s lifeStep) {
		if res.won == 0 {
			res.won = s
		}
	}
	do := func(s lifeStep) {
		switch s {
		case stepResp, stepDup:
			if res.won != 0 {
				wantLate++
			}
			end(stepResp)
			p := pool.Get(8)
			copy(p, "response")
			cli.deliver(wire.Message{Header: wire.Header{
				Kind: wire.KindResponse, RPCID: id, FnID: 7, Flags: o.kind.flags,
			}, Payload: p})
		case stepClose:
			end(stepClose)
			cli.Close()
		case stepGive:
			if cl == nil {
				return // issue has already reported the call
			}
			res.lostGive = res.won != 0
			end(stepGive)
			resp, err := cli.settle(cl, o.giveUp)
			reports = append(reports, lifeReport{resp, err})
			cl = nil
		}
	}
	f.SetGateway(func(_ uint32, frame []byte) error {
		h, err := wire.ParseHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		id = h.RPCID
		for _, s := range o.steps[:o.inSend] {
			do(s)
		}
		if o.sendFail {
			return errSend
		}
		return nil
	})

	var cb func([]byte, error)
	if !o.sync {
		cb = func(resp []byte, err error) {
			if cli.CompletionQueue().Len() != len(reports)+1 {
				t.Error("callback ran before its completion was enqueued")
			}
			reports = append(reports, lifeReport{resp, err})
		}
	}
	issued, err := cli.issue(conn, 7, []byte("request"), 0, cb, o.sync)
	if o.sendFail {
		end(stepSend)
	}
	if err != nil {
		reports = append(reports, lifeReport{nil, err})
	} else if o.sync {
		cl = issued // an async call may be recycled already: never read it
	}
	for _, s := range o.steps[o.inSend:] {
		do(s)
	}
	if cl != nil {
		// The caller never gave up: its wait ends on done.
		<-cl.done
		resp, err := cli.settle(cl, nil)
		reports = append(reports, lifeReport{resp, err})
	}

	wantErr := map[lifeStep]error{stepResp: o.kind.err, stepClose: ErrClientClose, stepGive: o.giveUp, stepSend: errSend}[res.won]
	if len(reports) != 1 {
		t.Fatalf("call reported %d times, want once: %v", len(reports), reports)
	}
	got := reports[0]
	if wantErr == nil {
		if got.err != nil || string(got.resp) != "response" {
			t.Fatalf("outcome = %q, %v; want the response", got.resp, got.err)
		}
	} else if !errors.Is(got.err, wantErr) || got.resp != nil {
		t.Fatalf("outcome = %q, %v; want %v from step %c", got.resp, got.err, wantErr, res.won)
	}

	cs := cli.CompletionQueue().Poll(0)
	wantCQ := 0
	if !o.sync && res.won != stepSend {
		wantCQ = 1
	}
	if len(cs) != wantCQ {
		t.Fatalf("completion queue holds %d entries, want %d", len(cs), wantCQ)
	}
	if o.sync {
		cli.Release(got.resp)
	} else if wantCQ == 1 {
		if cs[0].RPCID != id || cs[0].FnID != 7 || cs[0].Err != got.err {
			t.Fatalf("completion %+v does not match the callback's %v", cs[0], got.err)
		}
		cli.Release(cs[0].Resp)
	}

	if gets, puts := pool.Loans(); gets != puts {
		t.Fatalf("flow pool gets=%d puts=%d", gets, puts)
	}
	cli.mu.Lock()
	inFlight, pending := cli.conns[conn].win.InFlight, len(cli.pending)
	cli.mu.Unlock()
	if inFlight != 0 || pending != 0 {
		t.Fatalf("window in flight = %d, pending = %d; want 0, 0", inFlight, pending)
	}
	counts := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"Late", cli.Late.Load(), wantLate},
		{"Issued", cli.Issued.Load(), counts(!o.sendFail)},
		{"Completed", cli.Completed.Load(), counts(res.won == stepResp)},
		{"PeerDead", cli.PeerDead.Load(), counts(res.won == stepResp && o.kind.err == ErrPeerDead)},
		{"TimedOut", cli.TimedOut.Load(), counts(res.won == stepGive && o.giveUp == ErrTimeout)},
		{"Canceled", cli.Canceled.Load(), counts(res.won == stepGive && o.giveUp == context.Canceled)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	return res
}
