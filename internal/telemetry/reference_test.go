package telemetry

import (
	"fmt"
	"io"
)

// refTracer is the tracer the entry ring replaced, kept as the oracle of
// TestTracerMatchesReference and FuzzTracerRing: a ring of whole SpanRecords,
// every span an object against the tracer's clock, attributes copied into the
// ring on End. It knows nothing of queries: a routed query is the three
// general spans the router used to open (refQuery below).
type refTracer struct {
	clock     Clock
	nextTrace uint64
	nextSpan  uint64
	ring      []SpanRecord
	start     int
	n         int
	dropped   uint64
}

func newRefTracer(clock Clock, capacity int) *refTracer {
	return &refTracer{clock: clock, ring: make([]SpanRecord, capacity)}
}

type refSpan struct {
	t     *refTracer
	rec   SpanRecord
	ended bool
}

// refContext identifies a reference span within its trace, for linking.
type refContext struct{ Trace, Span uint64 }

func (t *refTracer) StartSpan(name string, attrs ...string) *refSpan {
	t.nextTrace++
	return t.newSpan(t.nextTrace, 0, name, attrs)
}

func (t *refTracer) StartChild(parent refContext, name string, attrs ...string) *refSpan {
	return t.newSpan(parent.Trace, parent.Span, name, attrs)
}

func (t *refTracer) newSpan(trace, parent uint64, name string, attrs []string) *refSpan {
	t.nextSpan++
	s := &refSpan{t: t, rec: SpanRecord{Trace: trace, ID: t.nextSpan, Parent: parent, Name: name, Start: t.clock.Now()}}
	for i := 0; i < len(attrs); i += 2 {
		s.rec.Attrs = append(s.rec.Attrs, Label{Key: attrs[i], Value: attrs[i+1]})
	}
	return s
}

func (s *refSpan) Context() refContext {
	return refContext{Trace: s.rec.Trace, Span: s.rec.ID}
}

func (s *refSpan) Annotate(key, value string) {
	if !s.ended {
		s.rec.Attrs = append(s.rec.Attrs, Label{Key: key, Value: value})
	}
}

func (s *refSpan) End() {
	if s.ended {
		return
	}
	s.ended = true
	s.rec.End = s.t.clock.Now()
	t := s.t
	var slot *SpanRecord
	if t.n == len(t.ring) {
		slot = &t.ring[t.start]
		t.start = (t.start + 1) % len(t.ring)
		t.dropped++
	} else {
		slot = &t.ring[(t.start+t.n)%len(t.ring)]
		t.n++
	}
	*slot = s.rec
	slot.Attrs = append([]Label(nil), s.rec.Attrs...)
}

func (t *refTracer) Finished() []SpanRecord {
	out := make([]SpanRecord, 0, t.n)
	for i := 0; i < t.n; i++ {
		r := t.ring[(t.start+i)%len(t.ring)]
		r.Attrs = append([]Label(nil), r.Attrs...)
		out = append(out, r)
	}
	return out
}

func (t *refTracer) Dropped() uint64 { return t.dropped }

func (t *refTracer) Dump(w io.Writer) error {
	for _, r := range t.Finished() {
		fmt.Fprintf(w, "trace=%d span=%d parent=%d %s %v → %v (%v)",
			r.Trace, r.ID, r.Parent, r.Name, r.Start, r.End, r.Duration().Sub(0))
		for _, a := range r.Attrs {
			fmt.Fprintf(w, " %s=%s", a.Key, a.Value)
		}
		io.WriteString(w, "\n")
	}
	return nil
}

// refQuery is a routed query in flight on the oracle: what the router held in
// its pending slot before QueryTrace.
type refQuery struct {
	root, exec *refSpan
}

// beginQuery is the router's old submit sequence for a query that starts.
func (t *refTracer) beginQuery(group, tenant, class, mppdb string) refQuery {
	root := t.StartSpan("query", "group", group, "tenant", tenant, "class", class)
	route := t.StartChild(root.Context(), "route")
	route.Annotate("mppdb", mppdb)
	route.End()
	return refQuery{root: root, exec: t.StartChild(root.Context(), "execute", "mppdb", mppdb)}
}

// endQuery is the router's old completion sequence.
func (q refQuery) endQuery() {
	q.exec.End()
	q.root.End()
}
