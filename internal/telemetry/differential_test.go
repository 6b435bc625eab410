package telemetry

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// The differential test drives the entry-ring Tracer and the SpanRecord-ring
// oracle (reference_test.go) with one sequence of operations — routed queries
// through BeginQuery/EndQuery and failed submits through FailQuery on one
// side and the router's old general spans on the other, free-standing spans
// on both — and compares what a reader can see: Finished, Dropped and the
// Dump bytes.

const (
	opTick    = iota // wind the clock by arg milliseconds
	opBegin          // route a query; arg picks its strings
	opEnd            // complete the arg-th query in flight
	opFail           // a submit that fails: in pickRef (arg even) or on the MPPDB
	opSpan           // open a root span with arg%3 attributes
	opSpanEnd        // end the arg-th open span, twice if arg is odd
	opKinds
)

type traceOp struct{ kind, arg byte }

func decodeTraceOps(data []byte) []traceOp {
	ops := make([]traceOp, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		ops = append(ops, traceOp{data[i] % opKinds, data[i+1]})
	}
	return ops
}

// failedSubmit is the router's traceFailed as general spans, what
// FailQuery must commit: mppdb is empty when routing itself failed.
func failedSubmit(t *refTracer, group, tenant, class, mppdb string) {
	root := t.StartSpan("query", "group", group, "tenant", tenant, "class", class)
	failed := t.StartChild(root.Context(), "route")
	if mppdb != "" {
		failed.Annotate("mppdb", mppdb)
		failed.End()
		failed = t.StartChild(root.Context(), "execute", "mppdb", mppdb)
	}
	failed.Annotate("error", "refused")
	failed.End()
	root.End()
}

// flight is one routed query in flight on both sides.
type flight struct {
	q                           QueryTrace
	submit                      sim.Time
	group, tenant, class, mppdb string
	ref                         refQuery
}

type traceDiff struct {
	t       *testing.T
	clock   *sim.Engine // no events, only wound forward by opTick
	tr      *Tracer
	ref     *refTracer
	flights []flight
	spans   []*Span
	refs    []*refSpan
}

func newTraceDiff(t *testing.T, capacity int) *traceDiff {
	clock := sim.NewEngine()
	return &traceDiff{t: t, clock: clock, tr: NewTracer(clock, capacity), ref: newRefTracer(clock, capacity)}
}

func (d *traceDiff) apply(op traceOp) {
	a := int(op.arg)
	group, tenant := fmt.Sprintf("TG-%d", a%3), fmt.Sprintf("T%04d", a%7)
	class, mppdb := fmt.Sprintf("TPCH-Q%d", a%5+1), fmt.Sprintf("TG-%d-db%d", a%3, a%2)
	switch op.kind {
	case opTick:
		d.clock.Run(d.clock.Now() + sim.Time(a)*sim.Millisecond)
	case opBegin:
		d.flights = append(d.flights, flight{
			q: d.tr.BeginQuery(d.clock.Now(), mppdb), submit: d.clock.Now(),
			group: group, tenant: tenant, class: class, mppdb: mppdb,
			ref: d.ref.beginQuery(group, tenant, class, mppdb),
		})
	case opEnd:
		if len(d.flights) == 0 {
			return
		}
		i := a % len(d.flights)
		f := d.flights[i]
		d.flights = append(d.flights[:i], d.flights[i+1:]...)
		d.tr.EndQuery(f.q, f.submit, d.clock.Now(), f.group, f.tenant, f.class, f.mppdb)
		f.ref.endQuery()
	case opFail:
		if a%2 == 0 {
			mppdb = ""
		}
		d.tr.FailQuery(d.clock.Now(), group, tenant, class, mppdb, "refused")
		failedSubmit(d.ref, group, tenant, class, mppdb)
	case opSpan:
		attrs := []string{"worker", tenant, "class", class}[:a%3*2]
		d.spans = append(d.spans, d.tr.StartSpan("op", attrs...))
		d.refs = append(d.refs, d.ref.StartSpan("op", attrs...))
	case opSpanEnd:
		if len(d.spans) == 0 {
			return
		}
		i := a % len(d.spans)
		s, r := d.spans[i], d.refs[i]
		d.spans = append(d.spans[:i], d.spans[i+1:]...)
		d.refs = append(d.refs[:i], d.refs[i+1:]...)
		for n := 0; n <= a%2; n++ {
			s.End()
			r.End()
		}
	}
}

func (d *traceDiff) compare(i int, op traceOp) {
	d.t.Helper()
	if got, want := d.tr.Dropped(), d.ref.Dropped(); got != want {
		d.t.Fatalf("after op %d %+v: Dropped = %d, reference %d", i, op, got, want)
	}
	got, want := d.tr.Finished(), d.ref.Finished()
	if !reflect.DeepEqual(got, want) {
		d.t.Fatalf("after op %d %+v: Finished differs\n tracer    %+v\n reference %+v", i, op, got, want)
	}
	var b, rb bytes.Buffer
	if err := d.tr.Dump(&b); err != nil {
		d.t.Fatal(err)
	}
	d.ref.Dump(&rb)
	if !bytes.Equal(b.Bytes(), rb.Bytes()) {
		d.t.Fatalf("after op %d %+v: Dump differs\n tracer:\n%s reference:\n%s", i, op, &b, &rb)
	}
}

// runTraceDiff applies ops at the given ring capacity. Reading a ring costs
// its length, so a ring that retains more than 64 spans is read in
// full at every 4,001st operation and at the end, and its Dropped count at
// every one.
func runTraceDiff(t *testing.T, capacity int, ops []traceOp) *traceDiff {
	t.Helper()
	d := newTraceDiff(t, capacity)
	d.compare(-1, traceOp{})
	for i, op := range ops {
		d.apply(op)
		if d.ref.n <= 64 || i%4001 == 0 || i == len(ops)-1 {
			d.compare(i, op)
		} else if got, want := d.tr.Dropped(), d.ref.Dropped(); got != want {
			t.Fatalf("after op %d %+v: Dropped = %d, reference %d", i, op, got, want)
		}
	}
	return d
}

// traceCapacities: a ring every commit evicts from, one a single query's
// spans fill, and the hub's own.
var traceCapacities = []int{1, 3, DefaultSpanCapacity}

func randomTraceOps(rng *rand.Rand, n int) []traceOp {
	ops := make([]traceOp, n)
	for i := range ops {
		ops[i] = traceOp{byte(rng.Intn(opKinds)), byte(rng.Intn(256))}
	}
	return ops
}

func TestTracerMatchesReference(t *testing.T) {
	for _, capacity := range traceCapacities {
		for seed := int64(1); seed <= 10; seed++ {
			runTraceDiff(t, capacity, randomTraceOps(rand.New(rand.NewSource(seed)), 300))
		}
	}
	// Long enough for the hub-sized ring to wrap more than once.
	d := runTraceDiff(t, DefaultSpanCapacity, randomTraceOps(rand.New(rand.NewSource(11)), 24_000))
	if d.tr.Dropped() < DefaultSpanCapacity {
		t.Errorf("the long run evicted %d spans, want a whole ring of them", d.tr.Dropped())
	}
	if tr := NewTracer(sim.NewEngine(), 0); len(tr.ring) != 1 {
		t.Errorf("capacity 0 built a ring of %d", len(tr.ring))
	}
}

func FuzzTracerRing(f *testing.F) {
	f.Add([]byte{opBegin, 4, opTick, 9, opEnd, 0})
	f.Add([]byte{opBegin, 1, opBegin, 2, opFail, 2, opFail, 3, opTick, 200, opEnd, 1, opSpan, 2, opEnd, 0})
	f.Add([]byte{opSpan, 1, opSpan, 0, opFail, 1, opSpanEnd, 1, opTick, 1, opSpanEnd, 0, opBegin, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*600 {
			data = data[:2*600]
		}
		ops := decodeTraceOps(data)
		for _, capacity := range traceCapacities {
			runTraceDiff(t, capacity, ops)
			runViewDiff(t, capacity, ops)
		}
	})
}

// The view differential runs one op sequence twice: through the views of a
// root tracer, one per group, each op an event on its group's engine that
// sim.Domains.Drive fires in windows between half-hour strides and
// coordinator events, and straight into a plain tracer in the order Drive
// fires them — by time, then group, then op order, a coordinator's op last.
// Groups route, complete and refuse queries; general spans are the
// coordinator's, on the root. Finished, Dropped and the Dump bytes must
// agree: the merges assign the identifiers one goroutine would have.

const viewGroups = 3

// viewSide is one side's per-group state; tracer(g) is group g's tracer,
// the coordinator's when g is viewGroups.
type viewSide struct {
	tracer  func(g int) *Tracer
	clock   func(g int) sim.Time
	flights [viewGroups][]flight
	spans   []*Span
}

func (s *viewSide) apply(g int, op traceOp) {
	a, tr := int(op.arg), s.tracer(g)
	group, tenant := fmt.Sprintf("TG-%d", g), fmt.Sprintf("T%04d", a%7)
	class, mppdb := fmt.Sprintf("TPCH-Q%d", a%5+1), fmt.Sprintf("TG-%d-db%d", g, a%2)
	switch op.kind {
	case opTick:
		tr.StartSpan("coordinator", "at", fmt.Sprint(a)).End()
	case opBegin:
		now := s.clock(g)
		s.flights[g] = append(s.flights[g], flight{q: tr.BeginQuery(now, mppdb), submit: now,
			group: group, tenant: tenant, class: class, mppdb: mppdb})
	case opEnd:
		if fs := s.flights[g]; len(fs) > 0 {
			f := fs[a%len(fs)]
			s.flights[g] = append(fs[:a%len(fs)], fs[a%len(fs)+1:]...)
			tr.EndQuery(f.q, f.submit, s.clock(g), f.group, f.tenant, f.class, f.mppdb)
		}
	case opFail:
		if a%2 == 0 {
			mppdb = ""
		}
		tr.FailQuery(s.clock(g), group, tenant, class, mppdb, "refused")
	case opSpan:
		s.spans = append(s.spans, tr.StartSpan("op", []string{"worker", tenant, "class", class}[:a%3*2]...))
	case opSpanEnd:
		if ss := s.spans; len(ss) > 0 {
			sp := ss[a%len(ss)]
			s.spans = append(ss[:a%len(ss)], ss[a%len(ss)+1:]...)
			sp.End()
		}
	}
}

// runViewDiff applies ops at the given ring capacity. A tick winds the time
// by arg minutes, every fifth one adding a coordinator span there; a
// general-span op is the coordinator's, any other goes to group
// (i+arg)%viewGroups.
func runViewDiff(t *testing.T, capacity int, ops []traceOp) {
	t.Helper()
	type timed struct {
		at sim.Time
		g  int
		op traceOp
	}
	var seq []timed
	now := sim.Time(0)
	for i, op := range ops {
		switch op.kind {
		case opTick:
			if now += sim.Time(op.arg) * sim.Minute; op.arg%5 == 0 {
				seq = append(seq, timed{now, viewGroups, op})
			}
		case opBegin, opEnd, opFail:
			seq = append(seq, timed{now, (i + int(op.arg)) % viewGroups, op})
		default:
			seq = append(seq, timed{now, viewGroups, op})
		}
	}

	engs := make([]*sim.Engine, viewGroups)
	for g := range engs {
		engs[g] = sim.NewEngine()
	}
	ds, coord := sim.NewDomains(engs), sim.NewEngine()
	hub := &Hub{Tracer: NewTracer(ds, capacity), Events: NewEventLog(ds, 1)}
	hub.Guard(ds.Gate())
	views := make([]*Tracer, viewGroups+1)
	for g := range engs {
		views[g] = hub.View(ds[g]).Tracer
	}
	views[viewGroups] = hub.Tracer
	side := &viewSide{tracer: func(g int) *Tracer { return views[g] }, clock: func(g int) sim.Time { return ds[g].Now() }}
	for _, e := range seq {
		eng := coord
		if e.g < viewGroups {
			eng = engs[e.g]
		}
		eng.Schedule(e.at, func(sim.Time) { side.apply(e.g, e.op) })
	}
	ds.Drive(coord, now+sim.Hour)

	// The direct side fires in Drive's order: a stable sort by (time, group).
	slices.SortStableFunc(seq, func(a, b timed) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.g, b.g)
	})
	clock := sim.NewEngine()
	direct := NewTracer(clock, capacity)
	dside := &viewSide{tracer: func(int) *Tracer { return direct }, clock: func(int) sim.Time { return clock.Now() }}
	for _, e := range seq {
		clock.Run(e.at)
		dside.apply(e.g, e.op)
	}

	if got, want := hub.Tracer.Dropped(), direct.Dropped(); got != want {
		t.Fatalf("views dropped %d spans, direct commits %d", got, want)
	}
	if got, want := hub.Tracer.Finished(), direct.Finished(); !reflect.DeepEqual(got, want) {
		t.Fatalf("views' spans differ from direct commits\n views  %+v\n direct %+v", got, want)
	}
	var b, db bytes.Buffer
	if err := hub.Tracer.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if err := direct.Dump(&db); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), db.Bytes()) {
		t.Fatalf("views' Dump differs from direct commits'\n views:\n%s direct:\n%s", &b, &db)
	}
}

func TestViewsMatchDirectCommits(t *testing.T) {
	for _, capacity := range traceCapacities {
		for seed := int64(1); seed <= 10; seed++ {
			runViewDiff(t, capacity, randomTraceOps(rand.New(rand.NewSource(seed)), 600))
		}
	}
}
