package telemetry

import (
	"fmt"
	"io"
	"slices"
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

// Tracer holds the most recent finished spans of a run, as if in a bounded
// ring. Identifiers are monotonic counters, so a deterministic simulation
// yields a byte-identical Dump across runs.
//
// A query's spans are built at read, from the trace ops its group numbered
// — route, end, refused submit — in (time, group, sequence) order, the order
// sim.Domains.Drive fires them in (QuerySource). A routed query has a root
// "query" span (submit → finish; group, tenant, class) with a "route" child
// (the Algorithm 1 decision, no clock time) and an "execute" child (on the
// MPPDB it was routed to); a refused one has the root and the route at its
// instant, and an execute child when an MPPDB refused it, the last carrying
// the error. The sources are read without a lock: the deployment must be
// quiescent while Finished, Dropped or Dump run.
//
// Any other span is a heap object from StartSpan on the Clock, committed at
// End to a tracer that reads no groups.
type Tracer struct {
	mu        sync.Mutex
	clock     Clock
	nextTrace uint64
	nextSpan  uint64
	capacity  int
	ring      []SpanRecord // StartSpan's, grown to capacity, then overwritten from next
	next      int
	total     uint64 // spans ever committed to ring
	gate      *sim.Gate
	sources   []QuerySource // in merge order, the order they were attached
}

// NewTracer builds a tracer retaining up to capacity finished spans.
func NewTracer(clock Clock, capacity int) *Tracer {
	return &Tracer{clock: clock, capacity: max(capacity, 1)}
}

// QueryOp is one routed or refused query as its group logged it: Seq is the
// route's trace sequence (Untraced: not numbered) or a refused submit's own,
// Submit and Finish the route's and the end's instants (a refusal's both).
type QueryOp struct {
	Seq                  uint32
	Submit, Finish       sim.Time
	Tenant, Class, MPPDB string // MPPDB: routed to; "" when none could be picked
	Err                  string // a refused submit's error
}

// Untraced is the Seq of a logged query whose route was not numbered.
const Untraced = ^uint32(0)

// QuerySource is one group's trace ops as its router logged them.
type QuerySource interface {
	// Group names the group, its query spans' "group" attribute.
	Group() string
	// Ops returns how many trace ops the group has numbered, how many of
	// them are ends, and how many completed queries its log holds.
	Ops() (n, ends uint32, records int)
	// Record returns the i-th logged query in completion order, its end's.
	Record(i int) QueryOp
	// Refusals returns the refused submits in sequence order; InFlight
	// appends the routed queries that have not ended, in any order.
	Refusals() []QueryOp
	InFlight(dst []QueryOp) []QueryOp
}

// Attach makes src the source of the next group's query spans: groups merge
// in the order they were attached, which a deployment makes its domain order.
func (t *Tracer) Attach(src QuerySource) { t.sources = append(t.sources, src) }

// Span is an in-flight operation opened by StartSpan. End commits it; an
// ended span ignores further calls.
type Span struct {
	t     *Tracer
	rec   SpanRecord
	ended bool
}

// StartSpan opens a root span of a fresh trace on the tracer's clock.
// attrs is a flat key, value, ... list recorded on the span. A tracer that
// reads groups' query spans panics: its identifiers are theirs.
func (t *Tracer) StartSpan(name string, attrs ...string) *Span {
	t.gate.Guard("the root tracer")
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.sources) > 0 {
		panic("telemetry: StartSpan on a tracer that reads groups' queries")
	}
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
	t := s.t
	t.gate.Guard("the root tracer")
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.rec.End = t.clock.Now()
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, s.rec)
	} else {
		t.ring[t.next] = s.rec
		t.next = (t.next + 1) % t.capacity
	}
	t.total++
}

// Finished returns the retained finished spans, oldest first, in the order
// they were committed (a child that ends before its parent comes first, so
// span IDs do not ascend). Every record's Attrs is the caller's own.
func (t *Tracer) Finished() []SpanRecord {
	if len(t.sources) > 0 {
		return t.walk()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append(append(make([]SpanRecord, 0, len(t.ring)), t.ring[t.next:]...), t.ring[:t.next]...)
	for i := range out {
		out[i].Attrs = append([]Label(nil), out[i].Attrs...)
	}
	return out
}

// Dropped returns how many finished spans were evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	total := t.total
	t.mu.Unlock()
	if len(t.sources) > 0 {
		_, _, total = t.counts()
	}
	return total - min(total, uint64(t.capacity))
}

// counts returns the traces, span IDs and spans the sources' ops committed: a
// route a trace, three IDs and a span, its end two spans, a refused submit a
// trace and refusalSpans IDs and spans.
func (t *Tracer) counts() (traces, ids, spans uint64) {
	for _, src := range t.sources {
		n, ends, _ := src.Ops()
		refs := src.Refusals()
		routes := uint64(n-ends) - uint64(len(refs))
		traces += routes + uint64(len(refs))
		ids, spans = ids+3*routes, spans+routes+2*uint64(ends)
		for _, q := range refs {
			k := uint64(refusalSpans(q))
			ids, spans = ids+k, spans+k
		}
	}
	return traces, ids, spans
}

func refusalSpans(q QueryOp) int {
	if q.MPPDB == "" {
		return 2
	}
	return 3
}

// stream walks one group's ops from its newest back: the op at seq-1 is a
// route that routes holds, else the last refusal left if it has that
// sequence, else the end of the last traced record left.
type stream struct {
	src    QuerySource
	seq    uint32
	rec    int       // records not walked
	refs   []QueryOp // refusals not walked
	routes map[uint32]route
	kind   byte    // the op at seq-1: 'r'oute, 'f'refused or 'e'nd
	op     QueryOp // its Finish is its instant
}

// route is a route the walk has yet to reach: of a walked end or a query in
// flight. span indexes its end's first kept span and kept counts them.
type route struct {
	op         QueryOp
	span, kept int
}

func (s *stream) peek() {
	n := s.seq - 1
	if r, ok := s.routes[n]; ok {
		s.kind, s.op = 'r', r.op
		s.op.Finish = s.op.Submit
	} else if k := len(s.refs) - 1; k >= 0 && s.refs[k].Seq == n {
		s.kind, s.op = 'f', s.refs[k]
	} else {
		for s.kind = 'e'; ; {
			if s.rec--; s.src.Record(s.rec).Seq != Untraced {
				s.op = s.src.Record(s.rec)
				break
			}
		}
	}
}

// walk builds the spans of the sources' last ops back to where the ring's
// capacity is filled and the route of every end it kept is reached, counting
// the identifiers down from the totals.
func (t *Tracer) walk() []SpanRecord {
	traces, ids, spans := t.counts()
	var ss []*stream
	for _, src := range t.sources {
		n, _, recs := src.Ops()
		s := &stream{src: src, seq: n, rec: recs, refs: src.Refusals(), routes: map[uint32]route{}}
		for _, q := range src.InFlight(nil) {
			s.routes[q.Seq] = route{op: q}
		}
		if n > 0 {
			s.peek()
		}
		ss = append(ss, s)
	}
	rev := make([]SpanRecord, 0, min(spans, uint64(t.capacity))) // newest first
	keep := func(r SpanRecord) bool {
		if len(rev) == cap(rev) {
			return false
		}
		rev = append(rev, r)
		return true
	}
	for waiting := 0; len(rev) < cap(rev) || waiting > 0; {
		var s *stream // the latest op: by time, then group, then sequence
		for _, c := range ss {
			if c.seq > 0 && (s == nil || c.op.Finish >= s.op.Finish) {
				s = c
			}
		}
		if s == nil {
			break
		}
		q := s.op
		query := SpanRecord{Trace: traces, Name: "query", Start: q.Submit, End: q.Finish,
			Attrs: []Label{{"group", s.src.Group()}, {"tenant", q.Tenant}, {"class", q.Class}}}
		execute := SpanRecord{Trace: traces, Name: "execute", Start: q.Submit, End: q.Finish, Attrs: []Label{{"mppdb", q.MPPDB}}}
		switch s.kind {
		case 'r':
			r, root := s.routes[s.seq-1], ids-2
			delete(s.routes, s.seq-1)
			keep(SpanRecord{Trace: traces, ID: root + 1, Parent: root, Name: "route", Start: q.Submit, End: q.Submit,
				Attrs: []Label{{"mppdb", q.MPPDB}}})
			if waiting -= min(r.kept, 1); r.kept > 0 {
				rev[r.span].Trace, rev[r.span].ID = traces, root
			}
			if r.kept == 2 {
				rev[r.span+1].Trace, rev[r.span+1].ID, rev[r.span+1].Parent = traces, root+2, root
			}
			traces, ids = traces-1, ids-3
		case 'f':
			s.refs = s.refs[:len(s.refs)-1]
			k := uint64(refusalSpans(q))
			root := ids - k + 1
			query.ID, execute.ID, execute.Parent = root, root+2, root
			keep(query)
			failed := SpanRecord{Trace: traces, ID: root + 1, Parent: root, Name: "route", Start: q.Submit, End: q.Submit,
				Attrs: []Label{{"error", q.Err}}}
			if q.MPPDB != "" {
				failed.Attrs[0], execute.Attrs = execute.Attrs[0], append(execute.Attrs, Label{"error", q.Err})
				keep(execute)
			}
			keep(failed)
			traces, ids = traces-1, ids-k
		default:
			r := route{op: q, span: len(rev)}
			query.Trace, execute.Trace = 0, 0 // set at the route
			for _, sp := range []SpanRecord{query, execute} {
				if keep(sp) {
					r.kept++
				}
			}
			waiting += min(r.kept, 1)
			s.routes[q.Seq] = r
		}
		if s.seq--; s.seq > 0 {
			s.peek()
		}
	}
	slices.Reverse(rev)
	return rev
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
