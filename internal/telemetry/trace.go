package telemetry

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/sim"
)

// SpanContext identifies a span within its trace, for causal linking.
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// SpanRecord is one finished span.
type SpanRecord struct {
	Trace  uint64
	ID     uint64
	Parent uint64 // 0 for root spans
	Name   string
	Start  sim.Time
	End    sim.Time
	Attrs  []Label // insertion order
}

// Duration returns the span's elapsed clock time.
func (r SpanRecord) Duration() sim.Time { return r.End - r.Start }

// entryKind says what an entry's strings mean: a query's three spans have
// fixed names and attribute keys, which only a reader's SpanRecord spells out.
type entryKind uint8

const (
	spanGeneral entryKind = iota // a = name, attrs as annotated
	spanRoute                    // a = mppdb
	spanExecute                  // a = mppdb
	spanQuery                    // a, b, c = group, tenant, class
)

// entry is one finished span as the ring keeps it.
type entry struct {
	trace, id, parent uint64
	start, end        sim.Time
	kind              entryKind
	a, b, c           string
	attrs             []Label // spanGeneral only; handed over by Span.End
}

// record builds the entry's readable form; Attrs is the caller's own copy.
func (e *entry) record() SpanRecord {
	r := SpanRecord{Trace: e.trace, ID: e.id, Parent: e.parent, Start: e.start, End: e.end}
	switch e.kind {
	case spanRoute:
		r.Name, r.Attrs = "route", []Label{{"mppdb", e.a}}
	case spanExecute:
		r.Name, r.Attrs = "execute", []Label{{"mppdb", e.a}}
	case spanQuery:
		r.Name, r.Attrs = "query", []Label{{"group", e.a}, {"tenant", e.b}, {"class", e.c}}
	default:
		r.Name, r.Attrs = e.a, append([]Label(nil), e.attrs...)
	}
	return r
}

// Tracer retains the most recent finished spans in a bounded ring.
// Identifiers are monotonic counters, so a deterministic simulation yields a
// byte-identical Dump across runs. A routed query is traced by BeginQuery and
// EndQuery, one lock round trip each and the caller's own timestamps; any
// other span is a heap object from StartSpan or StartChild on the Clock.
type Tracer struct {
	mu        sync.Mutex
	clock     Clock
	nextTrace uint64
	nextSpan  uint64
	ring      []entry
	next      int    // ring position the next finished span goes to
	total     uint64 // spans ever finished; the last len(ring) of them are retained
}

// NewTracer builds a tracer retaining up to capacity finished spans.
func NewTracer(clock Clock, capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{clock: clock, ring: make([]entry, capacity)}
}

// commit writes one finished span over the oldest ring position, field by
// field (assigning a built entry copies its 120 bytes twice), and returns it
// for the caller to add what its kind has beyond a; callers hold t.mu.
func (t *Tracer) commit(kind entryKind, trace, id, parent uint64, start, end sim.Time, a string) *entry {
	e := &t.ring[t.next]
	if t.next++; t.next == len(t.ring) {
		t.next = 0
	}
	t.total++
	e.trace, e.id, e.parent = trace, id, parent
	e.start, e.end, e.kind = start, end, kind
	e.a, e.b, e.c, e.attrs = a, "", "", nil
	return e
}

// QueryTrace is the handle on one routed query's trace: a root "query" span
// Root with a "route" child Root+1 and an "execute" child Root+2. The zero
// value means the query is not traced.
type QueryTrace struct {
	Trace, Root uint64
}

// BeginQuery opens the trace of a query routed to mppdb at now and commits
// its route span, the Algorithm 1 decision, which takes no clock time.
func (t *Tracer) BeginQuery(now sim.Time, mppdb string) QueryTrace {
	t.mu.Lock()
	t.nextTrace++
	q := QueryTrace{Trace: t.nextTrace, Root: t.nextSpan + 1}
	t.nextSpan += 3
	t.commit(spanRoute, q.Trace, q.Root+1, q.Root, now, now, mppdb)
	t.mu.Unlock()
	return q
}

// EndQuery commits the query's execute span and then its root, both running
// from submit to finish. mppdb is the instance the query was routed to.
func (t *Tracer) EndQuery(q QueryTrace, submit, finish sim.Time, group, tenant, class, mppdb string) {
	t.mu.Lock()
	t.commit(spanExecute, q.Trace, q.Root+2, q.Root, submit, finish, mppdb)
	e := t.commit(spanQuery, q.Trace, q.Root, 0, submit, finish, group)
	e.b, e.c = tenant, class
	t.mu.Unlock()
}

// Span is an in-flight operation opened by StartSpan or StartChild. End
// commits it; an ended span ignores further calls.
type Span struct {
	t     *Tracer
	rec   SpanRecord
	ended bool
}

// StartSpan opens a root span of a fresh trace. attrs is a flat
// key, value, ... list recorded on the span.
func (t *Tracer) StartSpan(name string, attrs ...string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextTrace++
	return t.newSpan(t.nextTrace, 0, name, attrs)
}

// StartChild opens a span causally under parent.
func (t *Tracer) StartChild(parent SpanContext, name string, attrs ...string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.newSpan(parent.Trace, parent.Span, name, attrs)
}

// newSpan allocates the span and its identifier; callers hold t.mu.
func (t *Tracer) newSpan(trace, parent uint64, name string, attrs []string) *Span {
	t.nextSpan++
	return &Span{t: t, rec: SpanRecord{
		Trace:  trace,
		ID:     t.nextSpan,
		Parent: parent,
		Name:   name,
		Start:  t.clock.Now(),
		Attrs:  attrPairs(attrs),
	}}
}

// attrPairs turns a flat key/value list into labels, preserving insertion
// order (unlike metric labels, span attributes tell a story in sequence).
// The panic message deliberately reports only len(kv): formatting kv itself
// would leak the slice to the heap and force every StartSpan/StartChild
// caller's variadic attr list to allocate.
func attrPairs(kv []string) []Label {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd attribute list (%d items)", len(kv)))
	}
	dst := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		dst = append(dst, Label{Key: kv[i], Value: kv[i+1]})
	}
	return dst
}

// Context returns the span's identity for linking children.
func (s *Span) Context() SpanContext {
	return SpanContext{Trace: s.rec.Trace, Span: s.rec.ID}
}

// Annotate appends an attribute to the span.
func (s *Span) Annotate(key, value string) {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if !s.ended {
		s.rec.Attrs = append(s.rec.Attrs, Label{Key: key, Value: value})
	}
}

// End closes the span at the clock's current time and commits it to the
// tracer's ring, which takes over the span's attributes.
func (s *Span) End() {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	r := &s.rec
	s.t.commit(spanGeneral, r.Trace, r.ID, r.Parent, r.Start, s.t.clock.Now(), r.Name).attrs = r.Attrs
}

// Finished returns the retained finished spans, oldest first, in the order
// they were committed (a child that ends before its parent comes first, so
// span IDs do not ascend). Every record's Attrs is the caller's own.
func (t *Tracer) Finished() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(min(t.total, uint64(len(t.ring))))
	out := make([]SpanRecord, 0, n)
	for i := len(t.ring) + t.next - n; i < len(t.ring)+t.next; i++ {
		out = append(out, t.ring[i%len(t.ring)].record())
	}
	return out
}

// Dropped returns how many finished spans were evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - min(t.total, uint64(len(t.ring)))
}

// Dump writes every retained span as one text line:
//
//	trace=3 span=7 parent=5 query 0d00:01:02.000 → 0d00:01:08.500 (6.5s) tenant=T0001 class=TPCH-Q1
//
// The output is totally ordered (commit order) and contains no wall-clock or
// random content, so deterministic runs produce identical bytes.
func (t *Tracer) Dump(w io.Writer) error {
	for _, r := range t.Finished() {
		if _, err := fmt.Fprintf(w, "trace=%d span=%d parent=%d %s %v → %v (%v)",
			r.Trace, r.ID, r.Parent, r.Name, r.Start, r.End, r.Duration().Sub(0)); err != nil {
			return err
		}
		for _, a := range r.Attrs {
			if _, err := fmt.Fprintf(w, " %s=%s", a.Key, a.Value); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
