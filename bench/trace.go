package main

import (
	"encoding/json"
	"os"
	"sort"
)

// span is one traced interval. Spans of one request share RPC; Parent is the
// index, in the written file, of the span that caused this one (-1 for a
// root). Times are nanoseconds on the harness clock.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	RPC    uint64 `json:"rpc"`
}

// maxRPCSpans bounds how many RPCs per caller keep their spans; the stage
// histograms still see every traced RPC.
const maxRPCSpans = 1024

// traceSink is one caller's traced-window record: it lives in pre-allocated
// memory and is written out when the benchmark ends.
type traceSink struct {
	st               *stamps
	reqH, hdlH, rspH hist   // request path, handler, response path
	spans            []span // rpc root followed by its handler child
}

// arm readies the sink for a traced window.
func (t *traceSink) arm() {
	*t = traceSink{st: t.st, spans: make([]span, 0, 2*maxRPCSpans)}
}

// note is called by a caller once request id's reply is verified: t0 is the
// Call entry, t1 the moment the reply was verified. The handler's entry and
// exit stamps split the round trip into request path, handler and response
// path.
func (t *traceSink) note(id uint64, t0, t1 int64) {
	i := stampSlot(id)
	in, out := t.st.enter[i].Load(), t.st.leave[i].Load()
	if in < t0 || out > t1 {
		return // slot overwritten or never stamped: skip rather than guess
	}
	t.reqH.add(in - t0)
	t.hdlH.add(out - in)
	t.rspH.add(t1 - out)
	if len(t.spans)+2 <= cap(t.spans) {
		root := len(t.spans)
		t.spans = append(t.spans,
			span{Name: "rpc", Start: t0, End: t1, Parent: -1, RPC: id},
			span{Name: "handler", Start: in, End: out, Parent: root, RPC: id})
	}
}

// traceFile is what a traced run writes next to its result.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// ClockOverheadNs is the cost of one harness clock read; every span
	// boundary includes one.
	ClockOverheadNs float64 `json:"clock_overhead_ns"`
	Spans           []span  `json:"spans"`
}

// add appends a group of spans whose Parent indices are relative to the
// group, rebasing them onto the file.
func (f *traceFile) add(group []span) {
	base := len(f.Spans)
	for _, s := range group {
		if s.Parent >= 0 {
			s.Parent += base
		}
		f.Spans = append(f.Spans, s)
	}
}

func (f *traceFile) write(path string) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// clockOverhead measures the cost of one now() call.
func clockOverhead() float64 {
	const n = 4096
	ds := make([]float64, n)
	for i := range ds {
		a := now()
		b := now()
		ds[i] = float64(b - a)
	}
	sort.Float64s(ds)
	return ds[n/2]
}
