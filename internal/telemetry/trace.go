package telemetry

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/sim"
)

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
// EndQuery, a refused one by FailQuery, each one lock round trip with the
// caller's own timestamps; any other span is a heap object from StartSpan on
// the Clock.
//
// A view (Hub.View) writes those three through to its root, or buffers them
// in a window; a query begun then gets a pending handle (Trace 0, Root a
// count) that the merge maps to the real one.
type Tracer struct {
	mu        sync.Mutex
	clock     Clock
	nextTrace uint64
	nextSpan  uint64
	ring      []entry
	next      int    // ring position the next finished span goes to
	total     uint64 // spans ever finished; the last len(ring) of them are retained
	gate      *sim.Gate
	views     []*Tracer

	// A view's: its group writes buf and begun, the merge the rest. open
	// holds the real handles of base+1, base+2, ... (zero once ended).
	root        *Tracer
	buf, spare  []bufOp
	begun, base uint64
	open        []QueryTrace
	dead        int
}

// bufOp is a call a view buffered; at is the view's clock, the merge key.
type bufOp struct {
	kind                             byte // 'b'egin, 'e'nd or 'f'ail
	at, start, end                   sim.Time
	q                                QueryTrace
	mppdb, group, tenant, class, err string
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
	if t.buffers() {
		t.begun++
		op := t.push('b')
		op.q.Root, op.start, op.mppdb = t.begun, now, mppdb
		return op.q
	}
	r := t.write()
	defer r.mu.Unlock()
	return r.beginLocked(now, mppdb)
}

func (t *Tracer) beginLocked(now sim.Time, mppdb string) QueryTrace {
	t.nextTrace++
	q := QueryTrace{Trace: t.nextTrace, Root: t.nextSpan + 1}
	t.nextSpan += 3
	t.commit(spanRoute, q.Trace, q.Root+1, q.Root, now, now, mppdb)
	return q
}

// EndQuery commits the query's execute span and then its root, both running
// from submit to finish. mppdb is the instance the query was routed to.
func (t *Tracer) EndQuery(q QueryTrace, submit, finish sim.Time, group, tenant, class, mppdb string) {
	if t.buffers() {
		op := t.push('e')
		op.q, op.start, op.end = q, submit, finish
		op.mppdb, op.group, op.tenant, op.class = mppdb, group, tenant, class
		return
	}
	r := t.write()
	defer r.mu.Unlock()
	r.endLocked(t.resolve(q), submit, finish, group, tenant, class, mppdb)
}

func (t *Tracer) endLocked(q QueryTrace, submit, finish sim.Time, group, tenant, class, mppdb string) {
	t.commit(spanExecute, q.Trace, q.Root+2, q.Root, submit, finish, mppdb)
	e := t.commit(spanQuery, q.Trace, q.Root, 0, submit, finish, group)
	e.b, e.c = tenant, class
}

// FailQuery commits the trace of a submit that started no query, at now: a
// root "query" span (group, tenant, class) with a "route" child and, when
// mppdb refused the query, an "execute" child; the last carries the error.
func (t *Tracer) FailQuery(now sim.Time, group, tenant, class, mppdb, err string) {
	if t.buffers() {
		op := t.push('f')
		op.start, op.mppdb, op.group, op.tenant, op.class, op.err = now, mppdb, group, tenant, class, err
		return
	}
	r := t.write()
	defer r.mu.Unlock()
	r.failLocked(now, group, tenant, class, mppdb, err)
}

func (t *Tracer) failLocked(now sim.Time, group, tenant, class, mppdb, err string) {
	t.nextTrace++
	trace, root := t.nextTrace, t.nextSpan+1
	t.nextSpan += 2
	if mppdb == "" {
		t.commit(spanGeneral, trace, root+1, root, now, now, "route").attrs = []Label{{"error", err}}
	} else {
		t.nextSpan++
		t.commit(spanGeneral, trace, root+1, root, now, now, "route").attrs = []Label{{"mppdb", mppdb}}
		t.commit(spanGeneral, trace, root+2, root, now, now, "execute").attrs = []Label{{"mppdb", mppdb}, {"error", err}}
	}
	t.commit(spanGeneral, trace, root, 0, now, now, "query").attrs = []Label{{"group", group}, {"tenant", tenant}, {"class", class}}
}

// buffers reports whether t is a view inside a window.
func (t *Tracer) buffers() bool { return t.root != nil && t.root.gate.Open() }

// write locks and returns the root, which refuses writes inside a window.
func (t *Tracer) write() *Tracer {
	if t.root != nil {
		t = t.root
	}
	t.gate.Guard("the root tracer")
	t.mu.Lock()
	return t
}

// push appends an op of kind at the view's clock for the caller to fill in
// place: appending a built one would copy it whole.
func (t *Tracer) push(kind byte) *bufOp {
	if len(t.buf) < cap(t.buf) {
		t.buf = t.buf[:len(t.buf)+1]
	} else {
		t.buf = append(t.buf, bufOp{})
	}
	op := &t.buf[len(t.buf)-1]
	*op = bufOp{kind: kind, at: t.clock.Now()}
	return op
}

// resolve maps a view's pending handle, once merged, to the real one.
func (t *Tracer) resolve(q QueryTrace) QueryTrace {
	if q.Trace != 0 {
		return q
	}
	i := q.Root - t.base - 1
	q, t.open[i] = t.open[i], QueryTrace{}
	for t.dead < len(t.open) && t.open[t.dead].Trace == 0 {
		t.dead++
	}
	if t.dead > len(t.open)/2 {
		t.open = t.open[:copy(t.open, t.open[t.dead:])]
		t.base, t.dead = t.base+uint64(t.dead), 0
	}
	return q
}

// take hands the views' buffers to a merge that commits them, and gives the
// views the ones the last merge emptied.
func (t *Tracer) take() func() {
	bufs := make([][]bufOp, len(t.views))
	for i, v := range t.views {
		bufs[i], v.buf, v.spare = v.buf, v.spare, nil
	}
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		merge(bufs, func(op *bufOp) sim.Time { return op.at }, func(i int, op *bufOp) {
			switch v := t.views[i]; op.kind {
			case 'b':
				v.open = append(v.open, t.beginLocked(op.start, op.mppdb))
			case 'e':
				t.endLocked(v.resolve(op.q), op.start, op.end, op.group, op.tenant, op.class, op.mppdb)
			default:
				t.failLocked(op.start, op.group, op.tenant, op.class, op.mppdb, op.err)
			}
		})
		for i, v := range t.views {
			v.spare = bufs[i][:0]
		}
	}
}

// Span is an in-flight operation opened by StartSpan. End commits it; an
// ended span ignores further calls.
type Span struct {
	t     *Tracer
	rec   SpanRecord
	ended bool
}

// StartSpan opens a root span of a fresh trace on the root tracer's clock.
// attrs is a flat key, value, ... list recorded on the span.
func (t *Tracer) StartSpan(name string, attrs ...string) *Span {
	t = t.write()
	defer t.mu.Unlock()
	t.nextTrace++
	t.nextSpan++
	return &Span{t: t, rec: SpanRecord{Trace: t.nextTrace, ID: t.nextSpan, Name: name,
		Start: t.clock.Now(), Attrs: attrPairs(attrs)}}
}

// attrPairs turns a flat key/value list into labels, preserving insertion
// order (unlike metric labels, span attributes tell a story in sequence).
// The panic message deliberately reports only len(kv): formatting kv itself
// would leak the slice to the heap and force every StartSpan caller's
// variadic attr list to allocate.
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

// End closes the span at the clock's current time and commits it to the
// tracer's ring, which takes over the span's attributes.
func (s *Span) End() {
	s.t.write()
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
