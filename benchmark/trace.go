package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End are
// nanoseconds since the tracer was created. Parent is the ID of the span that
// caused it (-1 for a root); spans of one pass share Pass, and Req numbers the
// request inside the pass (-1 for pass-level spans).
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Pass   int32  `json:"pass"`
	Req    int32  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run executes the same call sites for free.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, pass, req int) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Pass: int32(pass), Req: int32(req), Start: int64(time.Since(t.t0))})
	return id
}

// end closes the span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// add records an already-timed span; the request loops use it so a traced
// request costs one append on top of the two clock reads every run makes.
func (t *tracer) add(name string, parent int32, pass, req int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{Name: name, ID: int32(len(t.spans)), Parent: parent,
		Pass: int32(pass), Req: int32(req), Start: s, End: s + int64(d)})
}

// selfTimes returns, per span name, the summed duration of its spans minus
// the part their direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].End - t.spans[i].Start
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// dump writes every span as one JSON document.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
