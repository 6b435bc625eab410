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

// The differential tests compare what a reader of the Tracer sees — Finished,
// Dropped and the Dump bytes — with the SpanRecord-ring oracle
// (reference_test.go). General spans go to both as StartSpan and End. Routed
// and refused queries go to the Tracer as groups' trace ops (fakeGroup, a
// QuerySource), and to the oracle as the spans the router used to open for
// them, one op at a time in (time, group, sequence) order.

const (
	opTick    = iota // wind a clock
	opBegin          // route a query; arg picks its group and strings
	opEnd            // complete a query in flight
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

// failedSubmit is the router's old refused-submit trace as general spans:
// mppdb is empty when routing itself failed.
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

// groupOp is one trace op as a group numbered it, what the oracle replays.
type groupOp struct {
	at   sim.Time
	g    int
	seq  uint32
	kind byte // 'r'oute, 'e'nd or 'f'ailed
	q    QueryOp
}

// fakeGroup is one group's trace ops as its router logs them: routes, ends
// and refused submits numbered by one sequence, each end's record in its
// log, now and then a record that was never routed (Untraced, which the
// tracer passes over), the refusals and the queries in flight.
type fakeGroup struct {
	g         int
	ops, ends uint32
	records   []QueryOp
	refused   []QueryOp
	flight    []QueryOp
	log       []groupOp
	spans     int // committed, as the oracle counts them
}

func (f *fakeGroup) Group() string                    { return fmt.Sprintf("TG-%d", f.g) }
func (f *fakeGroup) Ops() (n, ends uint32, recs int)  { return f.ops, f.ends, len(f.records) }
func (f *fakeGroup) Record(i int) QueryOp             { return f.records[i] }
func (f *fakeGroup) Refusals() []QueryOp              { return f.refused }
func (f *fakeGroup) InFlight(dst []QueryOp) []QueryOp { return append(dst, f.flight...) }

func (f *fakeGroup) number(now sim.Time, kind byte, q QueryOp) {
	f.log = append(f.log, groupOp{now, f.g, f.ops, kind, q})
	f.ops++
}

// apply performs one query op of kind on the group at now; a carries its
// strings and which query ends.
func (f *fakeGroup) apply(now sim.Time, kind byte, a int) {
	tenant, class := fmt.Sprintf("T%04d", a%7), fmt.Sprintf("TPCH-Q%d", a%5+1)
	mppdb := fmt.Sprintf("TG-%d-db%d", f.g, a%2)
	switch kind {
	case opBegin:
		q := QueryOp{Seq: f.ops, Submit: now, Tenant: tenant, Class: class, MPPDB: mppdb}
		f.flight = append(f.flight, q)
		f.number(now, 'r', q)
		f.spans++
	case opEnd:
		if len(f.flight) == 0 {
			return
		}
		if a%11 == 0 {
			f.records = append(f.records, QueryOp{Seq: Untraced, Submit: now, Finish: now, Tenant: "untraced"})
		}
		i := a % len(f.flight)
		q := f.flight[i]
		f.flight = append(f.flight[:i], f.flight[i+1:]...)
		q.Finish = now
		f.records = append(f.records, q)
		f.ends++
		f.number(now, 'e', q)
		f.spans += 2
	case opFail:
		if a%2 == 0 {
			mppdb = ""
		}
		q := QueryOp{Seq: f.ops, Submit: now, Finish: now, Tenant: tenant, Class: class, MPPDB: mppdb, Err: "refused"}
		f.refused = append(f.refused, q)
		f.number(now, 'f', q)
		if f.spans += 2; mppdb != "" {
			f.spans++ // and the execute that carries the error
		}
	}
}

// oracle replays the groups' ops on the reference tracer in (time, group,
// sequence) order.
func oracle(capacity int, groups []*fakeGroup) *refTracer {
	var all []groupOp
	for _, f := range groups {
		all = append(all, f.log...)
	}
	slices.SortFunc(all, func(a, b groupOp) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.g, b.g), cmp.Compare(a.seq, b.seq))
	})
	clock := sim.NewEngine()
	ref := newRefTracer(clock, capacity)
	open := map[[2]uint32]refQuery{}
	for _, o := range all {
		clock.Run(o.at)
		group, key := fmt.Sprintf("TG-%d", o.g), [2]uint32{uint32(o.g), o.q.Seq}
		switch o.kind {
		case 'r':
			open[key] = ref.beginQuery(group, o.q.Tenant, o.q.Class, o.q.MPPDB)
		case 'e':
			open[key].endQuery()
			delete(open, key)
		default:
			failedSubmit(ref, group, o.q.Tenant, o.q.Class, o.q.MPPDB)
		}
	}
	return ref
}

// compareTracers fails the test at the first reader-visible difference.
func compareTracers(t *testing.T, at string, tr *Tracer, ref *refTracer) {
	t.Helper()
	if got, want := tr.Dropped(), ref.Dropped(); got != want {
		t.Fatalf("%s: Dropped = %d, reference %d", at, got, want)
	}
	if got, want := tr.Finished(), ref.Finished(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Finished differs\n tracer    %+v\n reference %+v", at, got, want)
	}
	var b, rb bytes.Buffer
	if err := tr.Dump(&b); err != nil {
		t.Fatal(err)
	}
	ref.Dump(&rb)
	if !bytes.Equal(b.Bytes(), rb.Bytes()) {
		t.Fatalf("%s: Dump differs\n tracer:\n%s reference:\n%s", at, &b, &rb)
	}
}

const viewGroups = 3

// runSourceDiff applies the ops' query kinds to viewGroups groups attached to
// one tracer, each group on a clock of its own that a tick winds by 0–3 s, so
// the groups' ops interleave out of time order and tie at equal instants, in
// a group and across groups. The oracle replays everything at every op while
// the groups have committed at most 64 spans, else at every 97th op (of a
// long run, at 16 ops spread over it) and at the end; in between Dropped is
// checked against a count of the spans.
func runSourceDiff(t *testing.T, capacity int, ops []traceOp) *Tracer {
	t.Helper()
	tr := NewTracer(sim.NewEngine(), capacity)
	groups := make([]*fakeGroup, viewGroups)
	var clocks [viewGroups]sim.Time
	for g := range groups {
		groups[g] = &fakeGroup{g: g}
		tr.Attach(groups[g])
	}
	compareTracers(t, "before any op", tr, oracle(capacity, groups))
	for i, op := range ops {
		g := int(op.arg) % viewGroups
		switch op.kind {
		case opTick:
			clocks[g] += sim.Time(op.arg/viewGroups%4) * sim.Second
		case opBegin, opEnd, opFail:
			groups[g].apply(clocks[g], op.kind, int(op.arg))
		}
		at := fmt.Sprintf("after op %d %+v", i, op)
		spans := 0
		for _, f := range groups {
			spans += f.spans
		}
		if spans <= 64 || i%max(97, len(ops)/16) == 0 || i == len(ops)-1 {
			compareTracers(t, at, tr, oracle(capacity, groups))
		} else if got, want := tr.Dropped(), uint64(max(spans-capacity, 0)); got != want {
			t.Fatalf("%s: Dropped = %d, want %d", at, got, want)
		}
	}
	return tr
}

// runSpanDiff applies the ops' general-span kinds to a tracer that reads no
// groups and to the oracle, a tick winding their clock by arg milliseconds,
// and compares them as runSourceDiff does.
func runSpanDiff(t *testing.T, capacity int, ops []traceOp) {
	t.Helper()
	clock := sim.NewEngine()
	tr, ref := NewTracer(clock, capacity), newRefTracer(clock, capacity)
	var spans []*Span
	var refs []*refSpan
	for i, op := range ops {
		a := int(op.arg)
		switch op.kind {
		case opTick:
			clock.Run(clock.Now() + sim.Time(a)*sim.Millisecond)
		case opSpan:
			attrs := []string{"worker", fmt.Sprintf("T%04d", a%7), "class", "TPCH-Q1"}[:a%3*2]
			spans, refs = append(spans, tr.StartSpan("op", attrs...)), append(refs, ref.StartSpan("op", attrs...))
		case opSpanEnd:
			if len(spans) == 0 {
				continue
			}
			j := a % len(spans)
			for n := 0; n <= a%2; n++ {
				spans[j].End()
				refs[j].End()
			}
			spans, refs = append(spans[:j], spans[j+1:]...), append(refs[:j], refs[j+1:]...)
		default:
			continue
		}
		if ref.n <= 64 || i%max(97, len(ops)/16) == 0 || i == len(ops)-1 {
			compareTracers(t, fmt.Sprintf("after op %d %+v", i, op), tr, ref)
		}
	}
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
			ops := randomTraceOps(rand.New(rand.NewSource(seed)), 300)
			runSpanDiff(t, capacity, ops)
			runSourceDiff(t, capacity, ops)
		}
	}
	// Long enough for the hub-sized ring to wrap more than once.
	long := randomTraceOps(rand.New(rand.NewSource(11)), 24_000)
	runSpanDiff(t, DefaultSpanCapacity, long)
	if tr := runSourceDiff(t, DefaultSpanCapacity, long); tr.Dropped() < DefaultSpanCapacity {
		t.Errorf("the long run evicted %d spans, want a whole ring of them", tr.Dropped())
	}
	if tr := NewTracer(sim.NewEngine(), 0); tr.capacity != 1 {
		t.Errorf("capacity 0 built a ring of %d", tr.capacity)
	}
}

// TestTracerLongRoutes: a query routed first and completed last, after more
// than a ring of refusals' spans, keeps its end, whose route the ring has
// long dropped; another stays in flight throughout.
func TestTracerLongRoutes(t *testing.T) {
	ops := []traceOp{{opBegin, 0}, {opBegin, 1}}
	for i := 0; i < DefaultSpanCapacity/2; i++ {
		ops = append(ops, traceOp{opFail, byte(2 + i%2*3)}) // group 2 at 0 s, with and without an execute span
	}
	ops = append(ops, traceOp{opTick, 3}, traceOp{opEnd, 0}) // group 0 at 1 s
	for _, capacity := range traceCapacities {
		tr := runSourceDiff(t, capacity, ops)
		if spans := tr.Finished(); spans[len(spans)-1].Name != "query" || spans[len(spans)-1].Attrs[0].Value != "TG-0" {
			t.Errorf("capacity %d: the last span is %+v, want TG-0's query", capacity, spans[len(spans)-1])
		}
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
			runSpanDiff(t, capacity, ops)
			runSourceDiff(t, capacity, ops)
			runViewDiff(t, capacity, ops)
		}
	})
}

// runViewDiff runs the ops' query kinds as events that sim.Domains.Drive
// fires — each on its group's engine, every seventh on the coordinator's —
// into groups attached through the views of a deployment's hub, the
// groups' engines on GOMAXPROCS goroutines between coordinator events. A
// tick winds the time by arg minutes. The views' tracer must read what the
// oracle replays.
func runViewDiff(t *testing.T, capacity int, ops []traceOp) {
	t.Helper()
	engs := make([]*sim.Engine, viewGroups)
	for g := range engs {
		engs[g] = sim.NewEngine()
	}
	ds, coord := sim.NewDomains(engs), sim.NewEngine()
	hub := NewHub(ds, 0.99)
	hub.Tracer = NewTracer(ds, capacity)
	hub.Guard(ds.Gate())
	groups := make([]*fakeGroup, viewGroups)
	for g := range groups {
		groups[g] = &fakeGroup{g: g}
		hub.View(ds[g]).Tracer.Attach(groups[g])
	}
	now := sim.Time(0)
	for i, op := range ops {
		g, kind, a := int(op.arg)%viewGroups, op.kind, int(op.arg)
		switch kind {
		case opTick:
			now += sim.Time(op.arg) * sim.Minute
		case opBegin, opEnd, opFail:
			eng := engs[g]
			if i%7 == 0 {
				eng = coord
			}
			eng.Schedule(now, func(sim.Time) { groups[g].apply(ds[g].Now(), kind, a) })
		}
	}
	ds.Drive(coord, now+sim.Hour)
	compareTracers(t, "after the drive", hub.Tracer, oracle(capacity, groups))
}

func TestViewsMatchDirectCommits(t *testing.T) {
	for _, capacity := range traceCapacities {
		for seed := int64(1); seed <= 10; seed++ {
			runViewDiff(t, capacity, randomTraceOps(rand.New(rand.NewSource(seed)), 600))
		}
	}
}
