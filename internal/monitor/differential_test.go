package monitor

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// The differential harness drives the monitor and the reference oracle (the
// map-and-slice monitor of reference_test.go) with one op sequence on one
// clock, each under a telemetry hub of its own, and compares everything a
// caller can read after every op.

const diffWindow = 100 * time.Second

var (
	diffTenants = []string{"t0", "t1", "t2", "t3", "t4", "t5"}
	diffClasses = []*queries.Class{{ID: "c0"}, {ID: "c1"}, {ID: "c2"}}
	diffInsts   = []string{"g-db0", "g-db1", "g-db2-r1"}
)

// Op kinds. The clock ops cover zero-length activity (no step between a start
// and its finish), ordinary steps, and jumps past twice the window, after
// which the next interval close prunes the tenant's list and the next
// violation close prunes the violations. opStride, an eighth of the window,
// is only scripted: decodeOps never yields it, so fuzz inputs keep their
// meaning.
const (
	opStart = iota
	opFinish
	opExclude
	opStep
	opJump
	opKinds
	opStride = opKinds
)

type diffOp struct {
	kind, tenant, arg byte
}

// decodeOps reads three bytes per op.
func decodeOps(data []byte) []diffOp {
	ops := make([]diffOp, 0, len(data)/3)
	for ; len(data) >= 3; data = data[3:] {
		ops = append(ops, diffOp{data[0] % opKinds, data[1] % byte(len(diffTenants)), data[2]})
	}
	return ops
}

type diffWorld struct {
	t   *testing.T
	eng *sim.Engine
	mon *GroupMonitor
	ref *refMonitor
	// in is the interner the monitor shares with its would-be router when the
	// world reports by ref, nil when it goes through the string methods.
	in           *tenant.Interner
	hubM, hubRef *telemetry.Hub
	// routes is the route sequence TracedRecord must return beside each
	// record: by ref counted up, by string Untraced.
	routes []uint32
}

// newDiffWorld builds both monitors with R=2. With byRef the monitor adopts
// an interner that already holds two of the tenants, in another order than
// the ops will meet them, and is driven through the ref methods like the
// router drives it; the other tenants are interned as the ops reach them, so
// their refs are first seen mid-run.
func newDiffWorld(t *testing.T, byRef bool) *diffWorld {
	t.Helper()
	eng := sim.NewEngine()
	mon, err := NewGroup(eng, "g", 2, diffWindow)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(eng, "g", 2, diffWindow)
	if err != nil {
		t.Fatal(err)
	}
	w := &diffWorld{t: t, eng: eng, mon: mon, ref: ref,
		hubM: telemetry.NewHub(eng, 0.99), hubRef: telemetry.NewHub(eng, 0.99)}
	if byRef {
		w.in = tenant.NewInterner()
		w.in.Intern("t4")
		w.in.Intern("never-observed")
		w.in.Intern("t1")
		if err := mon.SetInterner(w.in); err != nil {
			t.Fatal(err)
		}
	}
	mon.SetTelemetry(w.hubM)
	ref.SetTelemetry(w.hubRef)
	return w
}

func (w *diffWorld) apply(op diffOp) {
	id := diffTenants[op.tenant]
	switch op.kind {
	case opStart:
		if w.in != nil {
			w.mon.QueryStartedRef(w.in.Intern(id))
		} else {
			w.mon.QueryStarted(id)
		}
		w.ref.QueryStarted(id)
	case opFinish:
		// arg picks class and instance, and whether the query met a target
		// of 10 s: latencies run from 1 to 16 s. A finish may come without
		// a start, as one started after its tenant's Exclude does.
		now := w.eng.Now()
		rec := QueryRecord{
			Tenant:    id,
			Class:     diffClasses[int(op.arg)%len(diffClasses)],
			Submit:    now - sim.Time(1+op.arg%16)*sim.Second,
			Finish:    now,
			SLATarget: 10 * sim.Second,
			MPPDB:     diffInsts[int(op.arg/16)%len(diffInsts)],
		}
		route := telemetry.Untraced
		if w.in != nil {
			// The router's record carries the tenant too, but the ref is
			// what the monitor goes by.
			route = uint32(2 * len(w.routes))
			w.mon.QueryFinishedRef(w.in.Intern(id), rec, route)
		} else {
			w.mon.QueryFinished(rec)
		}
		w.routes = append(w.routes, route)
		w.ref.QueryFinished(rec)
	case opExclude:
		w.mon.Exclude(id)
		w.ref.Exclude(id)
	case opStep:
		w.eng.Run(w.eng.Now() + sim.Time(op.arg%8)*sim.Second)
	case opJump:
		w.eng.Run(w.eng.Now() + sim.Duration(diffWindow)*sim.Time(2+op.arg%2) + sim.Second)
	case opStride:
		w.eng.Run(w.eng.Now() + sim.Duration(diffWindow/8))
	}
}

// recordsOf is the naive tenant filter AppendTenantRecords must agree with.
func recordsOf(all []QueryRecord, tenantID string) []QueryRecord {
	var own []QueryRecord
	for _, r := range all {
		if r.Tenant == tenantID {
			own = append(own, r)
		}
	}
	return own
}

// compare fails the test at the first observable difference.
func (w *diffWorld) compare(step int, op diffOp) {
	t := w.t
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("after op %d %+v: %s = %v, reference %v", step, op, what, got, want)
	}
	if got, want := w.mon.ActiveTenants(), w.ref.ActiveTenants(); got != want {
		fail("ActiveTenants", got, want)
	}
	if got, want := w.mon.RTTTP(), w.ref.RTTTP(); got != want {
		fail("RTTTP", got, want)
	}
	if got, want := w.mon.Tenants(), w.ref.Tenants(); !reflect.DeepEqual(got, want) {
		fail("Tenants", got, want)
	}
	if got, want := w.mon.RecordCount(), w.ref.RecordCount(); got != want {
		fail("RecordCount", got, want)
	}
	if got, want := w.mon.SLAAttainment(), w.ref.SLAAttainment(); got != want {
		fail("SLAAttainment", got, want)
	}
	all := w.ref.Records()
	if got := w.mon.Records(); len(got) != len(all) || len(all) > 0 && !reflect.DeepEqual(got, all) {
		fail("Records", got, all)
	}
	for i, route := range w.routes {
		r := all[i]
		want := telemetry.QueryOp{Seq: route, Submit: r.Submit, Finish: r.Finish, Tenant: r.Tenant, Class: r.Class.ID, MPPDB: r.MPPDB}
		if got := w.mon.TracedRecord(i); got != want {
			fail(fmt.Sprintf("TracedRecord(%d)", i), got, want)
		}
	}
	for _, id := range append([]string{"never-observed", "unknown"}, diffTenants...) {
		if got, want := w.mon.Excluded(id), w.ref.Excluded(id); got != want {
			fail("Excluded "+id, got, want)
		}
		if got, want := w.mon.TenantActivity(id), w.ref.TenantActivity(id); !reflect.DeepEqual(got, want) {
			fail("TenantActivity "+id, got, want)
		}
		own := recordsOf(all, id)
		if got := w.mon.AppendTenantRecords(nil, id); !reflect.DeepEqual(got, own) {
			fail("AppendTenantRecords "+id, got, own)
		}
	}
	if got, want := w.hubM.SLA.Report(), w.hubRef.SLA.Report(); !reflect.DeepEqual(got, want) {
		fail("SLA.Report", got, want)
	}
	if got, want := w.hubM.SLA.Overall(), w.hubRef.SLA.Overall(); got != want {
		fail("SLA.Overall", got, want)
	}
	var evM, evRef, promM, promRef bytes.Buffer
	if err := w.hubM.Events.Dump(&evM); err != nil {
		t.Fatal(err)
	}
	if err := w.hubRef.Events.Dump(&evRef); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(evM.Bytes(), evRef.Bytes()) {
		fail("event log", evM.String(), evRef.String())
	}
	if err := w.hubM.Registry.WritePrometheus(&promM); err != nil {
		t.Fatal(err)
	}
	if err := w.hubRef.Registry.WritePrometheus(&promRef); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(promM.Bytes(), promRef.Bytes()) {
		fail("metrics", promM.String(), promRef.String())
	}
	// The lazily pruned lists hold at most one dead interval per live one.
	compacted := func(what string, v *intervals) {
		t.Helper()
		if live := len(v.live()); len(v.all) > 2*live+1 {
			fail(what+" backing intervals", len(v.all), fmt.Sprintf("at most 2×%d+1", live))
		}
	}
	for ref := range w.mon.tenants {
		compacted(fmt.Sprintf("ref %d's", ref), &w.mon.tenants[ref].ivs)
	}
	compacted("the violations'", &w.mon.violations)
}

func runDiff(t *testing.T, ops []diffOp, byRef bool) {
	t.Helper()
	w := newDiffWorld(t, byRef)
	w.compare(-1, diffOp{})
	for i, op := range ops {
		w.apply(op)
		w.compare(i, op)
	}
}

// scriptedOps walks through the cases a random sequence rarely lines up.
func scriptedOps() []diffOp {
	return []diffOp{
		{opStart, 0, 0}, {opFinish, 0, 3}, // zero-length activity: no interval, not in Tenants
		{opStart, 0, 0}, {opStart, 1, 0}, {opStart, 2, 0}, // over R
		{opStep, 0, 5},
		{opExclude, 1, 0}, // exclude with a query in flight: closes its interval, ends the violation
		{opStep, 0, 2},
		{opFinish, 1, 40}, // finish after exclude: logged, activity untouched
		{opStart, 1, 0},   // start after exclude: invisible
		{opFinish, 3, 15}, // finish without start, tenant first seen by a finish, SLA missed
		{opExclude, 5, 0}, // exclude of a tenant never seen
		{opFinish, 0, 9}, {opFinish, 2, 12},
		{opStart, 4, 0}, {opStep, 0, 1}, {opFinish, 4, 1},
		{opJump, 0, 0}, // past 2x window: old intervals and violations are prunable
		{opStart, 0, 0}, {opStart, 2, 0}, {opStart, 4, 0}, {opStep, 0, 3},
		{opFinish, 0, 2}, // closes the violation: violations pruned; closes t0: its list pruned
		{opFinish, 2, 2}, {opFinish, 4, 31},
		{opJump, 0, 1}, {opStart, 4, 0}, {opStep, 0, 0}, {opFinish, 4, 0}, // pruned to empty, still listed
	}
}

// longHorizonOps strides an eighth of the window at a time over 30 windows,
// so intervals and violations fall out of the window one or two per close
// instead of all at once after a jump: t0 is active every stride, the others
// in a rotation that puts three tenants over R=2 every third stride.
func longHorizonOps() []diffOp {
	var ops []diffOp
	for i := 0; i < 30*8; i++ {
		k := byte(1 + i%(len(diffTenants)-1))
		ops = append(ops, diffOp{opStart, 0, 0}, diffOp{opStart, k, 0})
		if i%3 == 0 {
			ops = append(ops, diffOp{opStart, 1 + (k+1)%(byte(len(diffTenants))-1), 0})
		}
		ops = append(ops, diffOp{opStride, 0, 0}, diffOp{opFinish, 0, byte(i)}, diffOp{opFinish, k, byte(i * 7)})
		if i%3 == 0 {
			ops = append(ops, diffOp{opFinish, 1 + (k+1)%(byte(len(diffTenants))-1), byte(i * 3)})
		}
		ops = append(ops, diffOp{opStep, 0, byte(i)})
	}
	return ops
}

// TestMonitorWindowCompacts runs the long-horizon script: every close prunes
// a little, the lists compact in place, and t0's backing array — 240 closed
// intervals — never grows past a couple of windows' worth.
func TestMonitorWindowCompacts(t *testing.T) {
	for _, byRef := range []bool{false, true} {
		w := newDiffWorld(t, byRef)
		for i, op := range longHorizonOps() {
			w.apply(op)
			w.compare(i, op)
		}
		ref, _ := w.mon.in.Lookup("t0")
		st := &w.mon.tenants[ref]
		if live := len(st.ivs.live()); live == 0 || cap(st.ivs.all) > 4*live {
			t.Errorf("t0 keeps %d live intervals in a backing array of %d", live, cap(st.ivs.all))
		}
	}
}

func TestMonitorMatchesReference(t *testing.T) {
	for _, byRef := range []bool{false, true} {
		runDiff(t, scriptedOps(), byRef)
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]diffOp, 200)
			for i := range ops {
				kind := byte(rng.Intn(opKinds))
				if kind == opJump && rng.Intn(8) != 0 || kind == opExclude && rng.Intn(4) != 0 {
					kind = opStart // keep jumps and excludes rare enough for state to build up
				}
				ops[i] = diffOp{kind, byte(rng.Intn(len(diffTenants))), byte(rng.Intn(256))}
			}
			runDiff(t, ops, byRef)
		}
	}
}

func FuzzMonitorOps(f *testing.F) {
	var script []byte
	for _, op := range scriptedOps() {
		script = append(script, op.kind, op.tenant, op.arg)
	}
	f.Add(script, false)
	f.Add(script, true)
	f.Add([]byte{opStart, 0, 0, opJump, 0, 0, opFinish, 0, 200, opStart, 1, 0}, true)
	f.Fuzz(func(t *testing.T, data []byte, byRef bool) {
		if len(data) > 3*400 {
			data = data[:3*400]
		}
		runDiff(t, decodeOps(data), byRef)
	})
}

// TestSetInternerAfterObservations: adopting other refs once tenants sit in
// ref-indexed slots would attribute their state to other tenants.
func TestSetInternerAfterObservations(t *testing.T) {
	m, _ := NewGroup(sim.NewEngine(), "g", 1, time.Hour)
	m.QueryStarted("a")
	if err := m.SetInterner(tenant.NewInterner()); err == nil {
		t.Error("a second interner was accepted after a tenant was observed")
	}
}

// expectRecords fails unless the monitor's log reads back as want: whole, and
// appended behind a caller's own rows.
func expectRecords(t *testing.T, m *GroupMonitor, want []QueryRecord) {
	t.Helper()
	if m.RecordCount() != len(want) {
		t.Fatalf("RecordCount = %d, want %d", m.RecordCount(), len(want))
	}
	got := m.Records()
	if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("%d records: Records() differs from what was logged", len(want))
	}
	prefix := []QueryRecord{{Tenant: "mine"}, {Tenant: "mine too"}}
	got = m.AppendRecords(prefix[:2:2])
	if !reflect.DeepEqual(got[:2], prefix) || len(got) != 2+len(want) || len(want) > 0 && !reflect.DeepEqual(got[2:], want) {
		t.Fatalf("%d records: AppendRecords into a non-empty slice lost or reordered rows", len(want))
	}
}

// TestRecordLogChunkBoundaries reads the log back one entry short of, at, and
// one entry past the end of every chunk, from the first 32-entry chunk up to
// the second full-size one.
func TestRecordLogChunkBoundaries(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != 40 {
		t.Errorf("a log entry takes %d bytes, want 40", size)
	}
	m, _ := NewGroup(sim.NewEngine(), "g", 1, time.Hour)
	check := map[int]bool{0: true}
	total := 0
	for size := minChunk; ; size *= 2 {
		size = min(size, maxChunk)
		total += size
		check[total-1], check[total], check[total+1] = true, true, true
		if size == maxChunk && total > 3*maxChunk {
			break
		}
	}
	var want []QueryRecord
	for n := 0; n <= total+1; n++ {
		if check[n] {
			expectRecords(t, m, want)
			wantChunks := 0
			for left, size := n, minChunk; left > 0; left, size = left-size, min(2*size, maxChunk) {
				wantChunks++
			}
			if got := len(m.log.chunks); got != wantChunks {
				t.Fatalf("%d records sit in %d chunks, want %d", n, got, wantChunks)
			}
		}
		rec := QueryRecord{
			Tenant:    diffTenants[n%len(diffTenants)],
			Class:     diffClasses[n%len(diffClasses)],
			Submit:    sim.Time(n),
			Finish:    sim.Time(2*n + 1),
			SLATarget: sim.Time(n%7) * sim.Second,
			MPPDB:     diffInsts[n%len(diffInsts)],
		}
		m.QueryFinished(rec)
		want = append(want, rec)
	}
	for _, c := range m.log.chunks[:len(m.log.chunks)-1] {
		if len(c) != cap(c) {
			t.Fatalf("a chunk of %d entries was closed at %d", cap(c), len(c))
		}
	}
}

// TestRecordLogSpill fills the side tables to their last 16-bit index, which
// a group reaches after 65,535 ad-hoc statements or instance replacements,
// and checks that records logged past it still read back whole, in order and
// through the tenant filter.
func TestRecordLogSpill(t *testing.T) {
	m, _ := NewGroup(sim.NewEngine(), "g", 1, time.Hour)
	var want []QueryRecord
	log := func(tenantID string, cl *queries.Class, db string) {
		rec := QueryRecord{Tenant: tenantID, Class: cl, Submit: sim.Time(len(want)), Finish: sim.Time(len(want) + 5), MPPDB: db}
		m.QueryFinishedRef(m.in.Intern(tenantID), rec, uint32(len(want)))
		want = append(want, rec)
	}
	log("a", diffClasses[0], "db0")
	for len(m.log.classes) < spillMark {
		m.log.classes = append(m.log.classes, &queries.Class{ID: "ADHOC"})
	}
	log("a", diffClasses[0], "db0")              // class indexed before the table filled
	log("b", &queries.Class{ID: "ADHOC"}, "db0") // no index left for the class
	log("a", &queries.Class{ID: "ADHOC"}, "db1") // nor for this one
	log("b", diffClasses[0], "db1")              // tables again
	for len(m.log.insts) < spillMark {
		m.log.insts = append(m.log.insts, "gone")
	}
	log("a", diffClasses[0], "db-replacement") // no index left for the instance
	log("b", diffClasses[0], "db1")
	if len(m.log.spill) != 3 {
		t.Fatalf("%d records spilled, want 3", len(m.log.spill))
	}
	expectRecords(t, m, want)
	for i, r := range want {
		q := telemetry.QueryOp{Seq: uint32(i), Submit: r.Submit, Finish: r.Finish, Tenant: r.Tenant, Class: r.Class.ID, MPPDB: r.MPPDB}
		if got := m.TracedRecord(i); got != q {
			t.Errorf("TracedRecord(%d) = %+v, want %+v", i, got, q)
		}
	}
	for _, id := range []string{"a", "b"} {
		own := recordsOf(want, id)
		if got := m.AppendTenantRecords(nil, id); !reflect.DeepEqual(got, own) {
			t.Errorf("tenant %s reads back %v, want %v", id, got, own)
		}
	}
}
