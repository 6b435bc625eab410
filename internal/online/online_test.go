package online

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/epoch"
	"repro/internal/master"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/tdd"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// win returns a one-hour activity window starting at hour h.
func win(h int) epoch.Activity {
	return epoch.Activity{{Start: sim.Time(h) * sim.Hour, End: sim.Time(h)*sim.Hour + sim.Hour}}
}

func mkLog(id string, act epoch.Activity) *workload.TenantLog {
	return &workload.TenantLog{
		Tenant:   &tenant.Tenant{ID: id, Nodes: 2, DataGB: 100, Users: 1, Suite: queries.TPCH},
		Activity: act,
	}
}

type world struct {
	eng  *sim.Engine
	pool *cluster.Pool
	dep  *master.Deployment
	ctl  *Controller
	logs map[string]*workload.TenantLog
}

// liveWorld deploys a hand-built R=1 plan (each group's members have disjoint
// windows, so any overlap injected later breaks the group) and arms a
// controller over it. groups maps group index -> member IDs; acts maps member
// ID -> activity.
func liveWorld(t *testing.T, groups [][]string, acts map[string]epoch.Activity, ctlImmediate bool) *world {
	t.Helper()
	acfg := advisor.DefaultConfig()
	acfg.R = 1
	design, err := tdd.NewClusterDesign(1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := &advisor.Plan{Config: acfg}
	tenants := map[string]*tenant.Tenant{}
	var logs []*workload.TenantLog
	logByID := map[string]*workload.TenantLog{}
	for gi, members := range groups {
		pg := advisor.PlannedGroup{
			ID:     gidOf(gi),
			Design: design,
			TTP:    1,
		}
		for _, id := range members {
			tl := mkLog(id, acts[id])
			tenants[id] = tl.Tenant
			logs = append(logs, tl)
			logByID[id] = tl
			pg.TenantIDs = append(pg.TenantIDs, id)
		}
		plan.Groups = append(plan.Groups, pg)
	}
	eng := sim.NewEngine()
	pool := cluster.NewPool(60)
	m := master.New(eng, pool, master.Options{Immediate: true, ParallelLoad: true, MonitorWindow: 24 * time.Hour})
	dep, err := m.Deploy(plan, tenants)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(acfg, sim.Day)
	cfg.Immediate = ctlImmediate
	ctl, err := New(eng, dep, m, plan, logs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &world{eng: eng, pool: pool, dep: dep, ctl: ctl, logs: logByID}
}

func gidOf(i int) string {
	return []string{"TG-0000", "TG-0001", "TG-0002"}[i]
}

// inject streams extra observed activity into a deployed tenant's live
// profile, as the monitor feed would.
func (w *world) inject(t *testing.T, id string, act epoch.Activity) {
	t.Helper()
	tn, ok := w.ctl.pl.Tenant(id)
	if !ok {
		t.Fatalf("tenant %s not in placer", id)
	}
	delta := w.ctl.grid.Quantize(act).Diff(tn.Spans)
	if _, err := w.ctl.pl.Ingest(id, delta); err != nil {
		t.Fatal(err)
	}
}

func (w *world) submit(t *testing.T, id string) string {
	t.Helper()
	cl, _ := queries.Default().ByID("TPCH-Q1")
	db, err := w.dep.Submit(id, cl)
	if err != nil {
		t.Fatalf("submit for %s: %v", id, err)
	}
	return db
}

func twoGroups() ([][]string, map[string]epoch.Activity) {
	return [][]string{{"Ta", "Tb"}, {"Tc", "Td"}},
		map[string]epoch.Activity{"Ta": win(0), "Tb": win(2), "Tc": win(4), "Td": win(6)}
}

func TestNewRejectsShardedDeployment(t *testing.T) {
	groups, acts := twoGroups()
	w := liveWorld(t, groups, acts, true) // build the plan pieces cheaply
	eng := sim.NewEngine()
	m := master.New(eng, cluster.NewPool(60), master.Options{Immediate: true, Sharded: true})
	acfg := advisor.DefaultConfig()
	acfg.R = 1
	design, _ := tdd.NewClusterDesign(1, 2, 0)
	plan := &advisor.Plan{Config: acfg, Groups: []advisor.PlannedGroup{
		{ID: "TG-0000", TenantIDs: []string{"Ta", "Tb"}, Design: design, TTP: 1},
	}}
	tenants := map[string]*tenant.Tenant{"Ta": w.logs["Ta"].Tenant, "Tb": w.logs["Tb"].Tenant}
	dep, err := m.Deploy(plan, tenants)
	if err != nil {
		t.Fatal(err)
	}
	logs := []*workload.TenantLog{w.logs["Ta"], w.logs["Tb"]}
	if _, err := New(eng, dep, m, plan, logs, DefaultConfig(acfg, sim.Day)); err == nil {
		t.Error("sharded deployment accepted")
	}
}

func TestJoinPlacedInExistingGroup(t *testing.T) {
	groups, acts := twoGroups()
	w := liveWorld(t, groups, acts, true)
	w.ctl.Start()
	// The joiner overlaps Tb: TG-0000 would break (R=1), TG-0001 stays
	// feasible — the T_best scan must pick TG-0001.
	w.ctl.Join(mkLog("Te", win(2)))
	w.eng.Run(20 * sim.Minute)

	st := w.ctl.Status()
	if st.Joins != 1 {
		t.Fatalf("joins = %d", st.Joins)
	}
	tn, ok := w.ctl.pl.Tenant("Te")
	if !ok || tn.Group != "TG-0001" {
		t.Fatalf("joiner in %q, want TG-0001", tn.Group)
	}
	if g, ok := w.dep.GroupFor("Te"); !ok || g.Plan.ID != "TG-0001" {
		t.Fatal("joiner not routable to TG-0001")
	}
	if db := w.submit(t, "Te"); !strings.HasPrefix(db, "TG-0001") {
		t.Errorf("query routed to %s", db)
	}
	migs := w.ctl.Migrations()
	if len(migs) != 1 || migs[0].Kind != "join" || !migs[0].CutOver {
		t.Errorf("migrations = %+v", migs)
	}
	if err := w.ctl.Audit(); err != nil {
		t.Errorf("audit: %v", err)
	}
}

func TestJoinProvisionsNewGroup(t *testing.T) {
	groups, acts := twoGroups()
	w := liveWorld(t, groups, acts, true)
	before := w.dep.NodesUsed()
	w.ctl.Start()
	// Active across every window: no existing group can absorb it under R=1.
	w.ctl.Join(mkLog("Tx", epoch.Activity{{Start: 0, End: 8 * sim.Hour}}))
	w.eng.Run(20 * sim.Minute)

	tn, ok := w.ctl.pl.Tenant("Tx")
	if !ok || tn.Group != "TG-ON0000" {
		t.Fatalf("joiner in %q, want a fresh TG-ON group", tn.Group)
	}
	if g, ok := w.dep.GroupFor("Tx"); !ok || g.Plan.ID != "TG-ON0000" {
		t.Fatal("joiner not routable to the new group")
	}
	if db := w.submit(t, "Tx"); !strings.HasPrefix(db, "TG-ON0000") {
		t.Errorf("query routed to %s", db)
	}
	if got := w.dep.NodesUsed(); got != before+2 {
		t.Errorf("nodes used %d, want %d (one new 2-node MPPDB)", got, before+2)
	}
	if err := w.ctl.Audit(); err != nil {
		t.Errorf("audit: %v", err)
	}
}

func TestLeaveRetiresEmptyGroup(t *testing.T) {
	groups, acts := twoGroups()
	w := liveWorld(t, groups, acts, true)
	before := w.dep.NodesUsed()
	w.ctl.Start()
	w.ctl.Leave("Tc")
	w.ctl.Leave("Td")
	w.eng.Run(3 * sim.Hour) // past the tick and the drain slack

	st := w.ctl.Status()
	if st.Leaves != 2 || st.GroupsRetired != 1 {
		t.Fatalf("leaves=%d retired=%d", st.Leaves, st.GroupsRetired)
	}
	if _, ok := w.dep.Plane().GroupByID("TG-0001"); ok {
		t.Error("retired group still on the plane")
	}
	if got := w.dep.NodesUsed(); got != before-2 {
		t.Errorf("nodes used %d, want %d after retiring a 2-node MPPDB", got, before-2)
	}
	cl, _ := queries.Default().ByID("TPCH-Q1")
	if _, err := w.dep.Submit("Tc", cl); err == nil {
		t.Error("departed tenant still routable")
	}
	if db := w.submit(t, "Ta"); !strings.HasPrefix(db, "TG-0000") {
		t.Errorf("surviving tenant routed to %s", db)
	}
}

func TestDriftRepairLocalMove(t *testing.T) {
	groups, acts := twoGroups()
	w := liveWorld(t, groups, acts, true)
	w.ctl.Start()
	// Ta's observed activity now also covers Tb's window: TG-0000 spends an
	// hour at count 2 > R=1 and violates the constraint. Local repair must
	// move one member into TG-0001 (whose windows are disjoint from both).
	w.inject(t, "Ta", win(2))
	if got := w.ctl.pl.Infeasible(); len(got) != 1 || got[0] != "TG-0000" {
		t.Fatalf("infeasible = %v", got)
	}
	w.eng.Run(20 * sim.Minute)

	st := w.ctl.Status()
	if st.LocalMoves != 1 || st.Fallbacks != 0 {
		t.Fatalf("moves=%d fallbacks=%d, want local repair only", st.LocalMoves, st.Fallbacks)
	}
	if got := w.ctl.pl.Infeasible(); len(got) != 0 {
		t.Fatalf("still infeasible: %v", got)
	}
	// The move is live: the tenant routes to its new group after cutover.
	tn, _ := w.ctl.pl.Tenant("Ta")
	if tn.Group != "TG-0001" {
		t.Fatalf("Ta in %q after repair", tn.Group)
	}
	if g, ok := w.dep.GroupFor("Ta"); !ok || g.Plan.ID != "TG-0001" {
		t.Fatal("Ta not routable to TG-0001")
	}
	if err := w.ctl.Audit(); err != nil {
		t.Errorf("audit: %v", err)
	}
}

func TestDriftRepairFallsBackToScopedReconsolidate(t *testing.T) {
	// A single group: local repair has nowhere to move anyone, so the loop
	// must escalate to the scoped offline re-solve and split the group.
	groups := [][]string{{"Ta", "Tb"}}
	acts := map[string]epoch.Activity{"Ta": win(0), "Tb": win(2)}
	w := liveWorld(t, groups, acts, true)
	w.ctl.Start()
	w.inject(t, "Ta", win(2))
	w.eng.Run(20 * sim.Minute)

	st := w.ctl.Status()
	if st.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d", st.Fallbacks)
	}
	rep := w.ctl.LastReport()
	if rep == nil {
		t.Fatal("no reconsolidation report")
	}
	if len(rep.Decisions) != 1 || rep.Decisions[0].Kept || rep.Decisions[0].Reason != advisor.ReasonFlagged {
		t.Errorf("decisions = %+v, want one flagged repack", rep.Decisions)
	}
	// The split landed both tenants in fresh feasible groups.
	if got := w.ctl.pl.Infeasible(); len(got) != 0 {
		t.Fatalf("still infeasible: %v", got)
	}
	for _, id := range []string{"Ta", "Tb"} {
		tn, _ := w.ctl.pl.Tenant(id)
		if !strings.HasPrefix(tn.Group, "TG-ON") {
			t.Errorf("%s in %q, want a fresh TG-ON group", id, tn.Group)
		}
		w.submit(t, id)
	}
	if err := w.ctl.Audit(); err != nil {
		t.Errorf("audit: %v", err)
	}
	// The vacated source group drains and retires.
	w.eng.Run(3 * sim.Hour)
	if _, ok := w.dep.Plane().GroupByID("TG-0000"); ok {
		t.Error("vacated group never retired")
	}
}

// TestMoveCutoverNeverDropsQueries drives submissions across a costed live
// migration: every submit before cutover lands on the source group, every
// submit after lands on the target, and none fail.
func TestMoveCutoverNeverDropsQueries(t *testing.T) {
	groups, acts := twoGroups()
	w := liveWorld(t, groups, acts, false) // costed migrations
	w.ctl.Start()
	w.inject(t, "Ta", win(2))

	// The move decision fires at the first tick; cutover after the bulk load.
	decisionAt := 15 * sim.Minute
	cost := sim.Duration(cluster.LoadTime(100, 2, true))
	cutoverAt := decisionAt + cost
	if cost < sim.Minute {
		t.Fatalf("load cost %v too small to straddle", cost)
	}

	var routed []string
	at := func(ts sim.Time) {
		w.eng.Schedule(ts, func(sim.Time) { routed = append(routed, w.submit(t, "Ta")) })
	}
	at(decisionAt - 5*sim.Minute) // before the decision
	at(decisionAt + sim.Minute)   // in flight: must still drain through source
	at(cutoverAt - sim.Second)    // just before the flip
	at(cutoverAt + sim.Second)    // just after the flip
	at(cutoverAt + 5*sim.Minute)
	w.eng.Run(cutoverAt + 10*sim.Minute)

	if len(routed) != 5 {
		t.Fatalf("%d of 5 submits succeeded", len(routed))
	}
	for i, db := range routed[:3] {
		if !strings.HasPrefix(db, "TG-0000") {
			t.Errorf("submit %d routed to %s, want source TG-0000", i, db)
		}
	}
	for i, db := range routed[3:] {
		if !strings.HasPrefix(db, "TG-0001") {
			t.Errorf("submit %d routed to %s, want target TG-0001", i+3, db)
		}
	}
	// Drain everything; every submitted query must have completed.
	w.ctl.Stop()
	w.eng.RunAll()
	if got := len(w.dep.Records()); got != 5 {
		t.Errorf("%d query records, want 5 (no drops)", got)
	}
}

// killGroup stops every instance of a deployed group in place, as a crash
// would: new submits stop resolving there, but executions already in flight
// still finish.
func (w *world) killGroup(t *testing.T, gid string) {
	t.Helper()
	grt, ok := w.dep.Plane().GroupByID(gid)
	if !ok {
		t.Fatalf("group %s not deployed", gid)
	}
	for _, inst := range grt.Instances {
		inst.SetState(mppdb.Stopped)
	}
}

// TestMigrationDestinationDiesAborts kills the destination group in the
// middle of a costed live migration's background reload. The crash watch must
// abort the cutover and re-place the tenant — onto a freshly provisioned
// group here, since the source conflicts under R=1 and the dead destination
// is excluded — while every query keeps draining through the live source.
func TestMigrationDestinationDiesAborts(t *testing.T) {
	groups, acts := twoGroups()
	w := liveWorld(t, groups, acts, false) // costed migrations
	w.ctl.Start()
	w.inject(t, "Ta", win(2))

	// The move TG-0000 → TG-0001 is decided at the first tick; the crash
	// lands mid-reload, so the 30-minute tick's watch catches it well before
	// the scheduled cutover would.
	decisionAt := 15 * sim.Minute
	cost := sim.Duration(cluster.LoadTime(100, 2, true))
	if cost < 20*sim.Minute {
		t.Fatalf("load cost %v too small for a mid-reload crash", cost)
	}
	w.eng.Schedule(20*sim.Minute, func(sim.Time) { w.killGroup(t, "TG-0001") })

	var routed []string
	at := func(ts sim.Time) {
		w.eng.Schedule(ts, func(sim.Time) { routed = append(routed, w.submit(t, "Ta")) })
	}
	at(decisionAt - 5*sim.Minute) // before the decision
	at(25 * sim.Minute)           // destination dead, abort not yet observed
	at(40 * sim.Minute)           // after the abort and re-placement
	w.eng.Run(decisionAt + cost + sim.Minute)

	migs := w.ctl.Migrations()
	if len(migs) < 2 {
		t.Fatalf("%d migrations recorded, want aborted move + re-placement", len(migs))
	}
	if m := migs[0]; !m.Failed || m.Failure != "destination_died" ||
		m.Resolution != "re_placed" || m.CutOver {
		t.Errorf("first migration = %+v, want failed destination_died/re_placed", m)
	}
	if m := migs[1]; !strings.HasPrefix(m.To, "TG-ON") || m.From != "TG-0000" {
		t.Errorf("re-placement = %+v, want TG-0000 -> fresh TG-ON group", m)
	}
	if st := w.ctl.Status(); st.MigrationsAborted != 1 {
		t.Errorf("aborted = %d, want 1", st.MigrationsAborted)
	}
	// The live source absorbed every submit until the re-placement group
	// (provisioned immediately by this harness's master) took over.
	for i, db := range routed[:2] {
		if !strings.HasPrefix(db, "TG-0000") {
			t.Errorf("submit %d routed to %s, want live source TG-0000", i, db)
		}
	}
	if len(routed) == 3 && !strings.HasPrefix(routed[2], "TG-ON") {
		t.Errorf("post-abort submit routed to %s, want the fresh TG-ON group", routed[2])
	}
	w.ctl.Stop()
	w.eng.RunAll()
	if got := len(w.dep.Records()); got != 3 {
		t.Errorf("%d query records, want 3 (no drops)", got)
	}
	tn, ok := w.ctl.pl.Tenant("Ta")
	if !ok || !strings.HasPrefix(tn.Group, "TG-ON") {
		t.Errorf("Ta placed in %q, want the fresh TG-ON group", tn.Group)
	}
}

// TestMigrationSourceDiesPromotes kills the source group mid-drain. The crash
// watch must promote the destination early — open for serving at
// promotedSlowdown until the background reload would have finished, full
// speed after — so the drain remainder routes through degraded serving
// instead of the dead source.
func TestMigrationSourceDiesPromotes(t *testing.T) {
	groups, acts := twoGroups()
	w := liveWorld(t, groups, acts, false) // costed migrations
	w.ctl.Start()
	w.inject(t, "Ta", win(2))

	decisionAt := 15 * sim.Minute
	cost := sim.Duration(cluster.LoadTime(100, 2, true))
	readyAt := decisionAt + cost
	if cost < 20*sim.Minute {
		t.Fatalf("load cost %v too small for a mid-drain crash", cost)
	}
	w.eng.Schedule(20*sim.Minute, func(sim.Time) { w.killGroup(t, "TG-0000") })

	var routed []string
	at := func(ts sim.Time) {
		w.eng.Schedule(ts, func(sim.Time) { routed = append(routed, w.submit(t, "Ta")) })
	}
	at(decisionAt - 5*sim.Minute) // drains through the still-live source
	at(31 * sim.Minute)           // after the promotion at the 30-minute tick

	// Degraded serving holds from promotion until the reload would have
	// finished.
	dest, ok := w.dep.Plane().GroupByID("TG-0001")
	if !ok {
		t.Fatal("destination group not deployed")
	}
	w.eng.Schedule(31*sim.Minute, func(sim.Time) {
		for _, inst := range dest.Instances {
			if got := inst.Slowdown(); got != promotedSlowdown {
				t.Errorf("promoted %s slowdown = %v, want %v", inst.ID(), got, promotedSlowdown)
			}
		}
	})
	w.eng.Run(readyAt + sim.Minute)

	migs := w.ctl.Migrations()
	if len(migs) != 1 {
		t.Fatalf("%d migrations recorded, want 1", len(migs))
	}
	if m := migs[0]; !m.CutOver || m.Failed || m.Resolution != "promoted_early" {
		t.Errorf("migration = %+v, want cut over promoted_early", m)
	}
	st := w.ctl.Status()
	if st.MigrationsPromoted != 1 || st.MigrationsAborted != 0 {
		t.Errorf("promoted/aborted = %d/%d, want 1/0", st.MigrationsPromoted, st.MigrationsAborted)
	}
	if len(routed) != 2 {
		t.Fatalf("%d of 2 submits succeeded", len(routed))
	}
	if !strings.HasPrefix(routed[0], "TG-0000") {
		t.Errorf("pre-crash submit routed to %s, want source TG-0000", routed[0])
	}
	if !strings.HasPrefix(routed[1], "TG-0001") {
		t.Errorf("post-promotion submit routed to %s, want destination TG-0001", routed[1])
	}
	for _, inst := range dest.Instances {
		if got := inst.Slowdown(); got != 1 {
			t.Errorf("%s slowdown = %v after readyAt, want 1 (degradation lifted)", inst.ID(), got)
		}
	}
	w.ctl.Stop()
	w.eng.RunAll()
	if got := len(w.dep.Records()); got != 2 {
		t.Errorf("%d query records, want 2 (no drops)", got)
	}
}

func TestPlacerBestGroupMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const D = 240
	randSpans := func() epoch.Spans {
		var sp epoch.Spans
		at := int32(rng.Intn(20))
		for int64(at) < D {
			ln := int32(1 + rng.Intn(12))
			end := at + ln
			if int64(end) > D {
				end = int32(D)
			}
			sp = append(sp, epoch.Span{S: at, E: end})
			at = end + int32(1+rng.Intn(30))
		}
		return sp
	}
	brute := func(pl *Placer, nodes int, sp epoch.Spans, exclude string) (string, bool) {
		bestID := ""
		bestMax := 0
		var bestShare int64
		for _, g := range pl.Groups() {
			if g.ID == exclude || g.Nodes < nodes {
				continue
			}
			tr := g.CS.Preview(sp)
			if g.CS.NewTTP(pl.R, tr) < pl.P-feasSlack {
				continue
			}
			km, _ := g.CS.NewTopUp(tr)
			share := g.CS.NewHistAt(tr, km)
			if bestID == "" || km < bestMax || (km == bestMax && share < bestShare) {
				bestID, bestMax, bestShare = g.ID, km, share
			}
		}
		return bestID, bestID != ""
	}

	pl := NewPlacer(D, 3, 0.85)
	for gi := 0; gi < 8; gi++ {
		nodes := 2 + rng.Intn(3)
		if _, err := pl.AddGroup(string(rune('A'+gi)), nodes); err != nil {
			t.Fatal(err)
		}
	}
	gs := pl.Groups()
	for i := 0; i < 40; i++ {
		id := string(rune('a'+i%26)) + string(rune('0'+i/26))
		if _, err := pl.Register(id, 1+rng.Intn(4), randSpans()); err != nil {
			t.Fatal(err)
		}
		pl.Assign(id, gs[rng.Intn(len(gs))].ID)
	}
	for probe := 0; probe < 200; probe++ {
		nodes := 1 + rng.Intn(4)
		sp := randSpans()
		exclude := ""
		if probe%3 == 0 {
			exclude = gs[rng.Intn(len(gs))].ID
		}
		wantID, wantOK := brute(pl, nodes, sp, exclude)
		gotID, gotOK := pl.BestGroup(nodes, sp, exclude)
		if gotID != wantID || gotOK != wantOK {
			t.Fatalf("probe %d: BestGroup = %q/%v, brute force = %q/%v",
				probe, gotID, gotOK, wantID, wantOK)
		}
	}
}

func TestPlacerEvictionOrderRanksByRelief(t *testing.T) {
	pl := NewPlacer(10, 1, 0.5)
	pl.AddGroup("G", 2)
	pl.Register("A", 2, epoch.Spans{{S: 0, E: 6}})
	pl.Register("B", 2, epoch.Spans{{S: 0, E: 3}})
	pl.Register("C", 2, epoch.Spans{{S: 8, E: 9}})
	for _, id := range []string{"A", "B", "C"} {
		if err := pl.Assign(id, "G"); err != nil {
			t.Fatal(err)
		}
	}
	// Counts: [0,3)=2, [3,6)=1, [8,9)=1. Over-budget epochs (count 2) lie in
	// [0,3): A and B both relieve 3 epochs (tie broken by ID), C none.
	got := pl.EvictionOrder("G")
	want := []string{"A", "B", "C"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("eviction order = %v, want %v", got, want)
		}
	}
}

func TestPlacerUnassignIsExactInverse(t *testing.T) {
	pl := NewPlacer(100, 2, 0.9)
	pl.AddGroup("G", 2)
	pl.Register("X", 2, epoch.Spans{{S: 10, E: 30}})
	pl.Assign("X", "G")
	// Drift in two installments, overlapping the profile and each other's
	// neighborhood: Ingest must add only the disjoint delta.
	for _, obs := range []epoch.Spans{{{S: 20, E: 40}}, {{S: 5, E: 15}, {S: 60, E: 70}}} {
		tn, _ := pl.Tenant("X")
		if _, err := pl.Ingest("X", obs.Diff(tn.Spans)); err != nil {
			t.Fatal(err)
		}
	}
	tn, _ := pl.Tenant("X")
	if tn.DeltaEpochs != 10+5+10 {
		t.Errorf("DeltaEpochs = %d, want 25", tn.DeltaEpochs)
	}
	g, _ := pl.Group("G")
	if g.CS.MaxCount() != 1 {
		t.Fatalf("count exceeded 1: profile and deltas must not double-count")
	}
	if err := pl.Unassign("X"); err != nil {
		t.Fatal(err)
	}
	if g.CS.MaxCount() != 0 || g.CS.TTP(2) != 1 {
		t.Errorf("group not empty after unassign: max=%d", g.CS.MaxCount())
	}
}

// TestReplanBeatsEpochWidth is the online loop's acceptance bar: one
// steady-state re-plan decision over 10,000 tenants — rank a group's members
// by eviction relief, then find the best feasible target group for a
// tenant-sized probe with a bounded T_best scan across every group — takes
// less than a hundredth of the epoch width it races.
func TestReplanBeatsEpochWidth(t *testing.T) {
	const groups, perGroup = 1250, 8
	cfg := advisor.DefaultConfig()
	d := int64(sim.Day / cfg.Epoch)
	pl := NewPlacer(d, cfg.R, cfg.P)
	gids := make([]string, groups)
	for g := range gids {
		gids[g] = fmt.Sprintf("G%05d", g)
		if _, err := pl.AddGroup(gids[g], 2); err != nil {
			t.Fatal(err)
		}
		// Members stagger their single active span, so every group satisfies
		// the fuzzy-capacity constraint.
		for m := 0; m < perGroup; m++ {
			id := fmt.Sprintf("T%06d", g*perGroup+m)
			s := int32(int64(m) * d / perGroup)
			if _, err := pl.Register(id, 2, epoch.Spans{{S: s, E: s + int32(d/(2*perGroup))}}); err != nil {
				t.Fatal(err)
			}
			if err := pl.Assign(id, gids[g]); err != nil {
				t.Fatal(err)
			}
		}
	}
	const rounds = 20
	start := time.Now()
	for i := 0; i < rounds; i++ {
		gid := gids[i*61%groups]
		_ = pl.EvictionOrder(gid)
		off := int32(int64(i%16) * d / 16)
		_, _ = pl.BestGroup(2, epoch.Spans{{S: off, E: off + int32(d/16)}}, gid)
	}
	if per := time.Since(start) / rounds; per > time.Duration(cfg.Epoch)/100 {
		t.Errorf("re-plan %v is not 100× under the %v epoch width", per, time.Duration(cfg.Epoch))
	}
}
