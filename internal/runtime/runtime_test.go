package runtime

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// newGroup hand-builds a two-MPPDB group on the engine, mirroring the
// Deployment Master's wiring (master itself can't be imported — it depends
// on this package).
func newGroup(t *testing.T, eng *sim.Engine, id string, tenantIDs ...string) *GroupRuntime {
	t.Helper()
	members := make([]*tenant.Tenant, 0, len(tenantIDs))
	for _, tid := range tenantIDs {
		members = append(members, &tenant.Tenant{
			ID: tid, Nodes: 2, DataGB: 10, Suite: queries.TPCH, Users: 1,
		})
	}
	in := tenant.NewInterner()
	var insts []*mppdb.Instance
	for i := 0; i < 2; i++ {
		inst := mppdb.NewInterned(eng, fmt.Sprintf("%s-db%d", id, i), 2, in)
		for _, m := range members {
			inst.DeployTenant(m.ID, m.DataGB)
		}
		insts = append(insts, inst)
	}
	mon, err := monitor.NewGroup(eng, id, 2, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.NewGroup(eng, id, insts, members, mon)
	if err != nil {
		t.Fatal(err)
	}
	return &GroupRuntime{
		Plan:      advisor.PlannedGroup{ID: id, TenantIDs: tenantIDs},
		Instances: insts,
		Router:    rt,
		Monitor:   mon,
		Members:   members,
	}
}

func q1(t *testing.T) *queries.Class {
	t.Helper()
	c, ok := queries.Default().ByID("TPCH-Q1")
	if !ok {
		t.Fatal("TPCH-Q1 missing from default catalog")
	}
	return c
}

func TestGroupRuntimeSubmitStatsRecords(t *testing.T) {
	eng := sim.NewEngine()
	g := newGroup(t, eng, "TG-0001", "t1", "t2")
	g.Bind(sim.NewDomain(eng))

	db, _, err := g.SubmitGoverned(sim.Second, "t1", q1(t), 0, RetryPolicy{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(db, "TG-0001-db") {
		t.Errorf("routed to %q", db)
	}
	st := g.Stats()
	if st.Group != "TG-0001" || st.Members != 2 {
		t.Errorf("stats identity: %+v", st)
	}
	if st.Routed != 1 {
		t.Errorf("routed = %d, want 1", st.Routed)
	}
	if len(st.Instances) != 2 {
		t.Fatalf("%d instance snapshots", len(st.Instances))
	}
	// The query is still running somewhere in the group.
	running := 0
	for _, is := range st.Instances {
		running += is.Running
	}
	if running != 1 {
		t.Errorf("%d running, want 1", running)
	}

	// StatsAt drives the clock; the query finishes well within a day.
	st = g.StatsAt(sim.Day)
	if g.Now() != sim.Day {
		t.Errorf("Now = %v after StatsAt(Day)", g.Now())
	}
	recs := g.AppendRecordsAt(nil, sim.Day)
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	if recs[0].Tenant != "t1" || recs[0].MPPDB != db {
		t.Errorf("record %+v", recs[0])
	}
	if st.SLAAttainment != 1 {
		t.Errorf("attainment = %v", st.SLAAttainment)
	}
}

func TestGroupRuntimeSubmitUnknownTenant(t *testing.T) {
	eng := sim.NewEngine()
	g := newGroup(t, eng, "TG-0001", "t1")
	g.Bind(sim.NewDomain(eng))
	if _, _, err := g.SubmitGoverned(sim.Second, "ghost", q1(t), 0, RetryPolicy{}, false); err == nil {
		t.Error("submit for non-member accepted")
	}
}

func TestPlaneShardedIndexAndClocks(t *testing.T) {
	p := NewPlane(nil)
	var groups []*GroupRuntime
	for i := 0; i < 3; i++ {
		eng := sim.NewEngine()
		g := newGroup(t, eng, fmt.Sprintf("TG-%04d", i), fmt.Sprintf("t%d", i))
		g.Bind(sim.NewDomain(eng))
		p.Add(g)
		groups = append(groups, g)
	}
	if len(p.Domains()) != 3 {
		t.Fatalf("%d domains, want 3", len(p.Domains()))
	}
	if p.Tenants() != 3 {
		t.Errorf("%d tenants indexed", p.Tenants())
	}
	for i, g := range groups {
		got, ok := p.ForTenant(fmt.Sprintf("t%d", i))
		if !ok || got != g {
			t.Errorf("ForTenant(t%d) = %v, %v", i, got, ok)
		}
	}
	if _, ok := p.ForTenant("ghost"); ok {
		t.Error("ghost tenant resolved")
	}
	// Clocks are independent; Plane.Now is the max.
	groups[1].Domain().Advance(5*sim.Minute, nil)
	if groups[0].Now() != 0 || groups[1].Now() != 5*sim.Minute {
		t.Errorf("clocks coupled: %v %v", groups[0].Now(), groups[1].Now())
	}
	if p.Now() != 5*sim.Minute {
		t.Errorf("plane Now = %v", p.Now())
	}
	// AdvanceAll leaves a shedding-only group to its brownout controller.
	groups[2].SetSheddingOnly(true)
	p.AdvanceAll(sim.Hour)
	for i, g := range groups {
		want := sim.Hour
		if i == 2 {
			want = 0
		}
		if g.Now() != want {
			t.Errorf("group %d at %v after AdvanceAll, want %v", i, g.Now(), want)
		}
	}
}

func TestPlaneRecordsGroupOrder(t *testing.T) {
	p := NewPlane(nil)
	class := q1(t)
	for i := 0; i < 2; i++ {
		eng := sim.NewEngine()
		g := newGroup(t, eng, fmt.Sprintf("TG-%04d", i), fmt.Sprintf("t%d", i))
		g.Bind(sim.NewDomain(eng))
		p.Add(g)
	}
	// Submit in reverse group order; Records still returns group order.
	if _, _, err := p.Groups()[1].SubmitGoverned(sim.Second, "t1", class, 0, RetryPolicy{}, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Groups()[0].SubmitGoverned(2*sim.Second, "t0", class, 0, RetryPolicy{}, false); err != nil {
		t.Fatal(err)
	}
	p.AdvanceAll(sim.Day)
	recs := p.Records()
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].Tenant != "t0" || recs[1].Tenant != "t1" {
		t.Errorf("records out of group order: %s, %s", recs[0].Tenant, recs[1].Tenant)
	}
}

// TestGroupRuntimeConcurrentSubmits exercises the locked methods from many
// goroutines — meaningful under -race.
func TestGroupRuntimeConcurrentSubmits(t *testing.T) {
	eng := sim.NewEngine()
	g := newGroup(t, eng, "TG-0001", "t1", "t2", "t3", "t4")
	g.Bind(sim.NewDomain(eng))
	class := q1(t)
	var wg sync.WaitGroup
	const per = 25
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tid := fmt.Sprintf("t%d", w+1)
			for i := 0; i < per; i++ {
				at := sim.Time(i+1) * sim.Second
				if _, _, err := g.SubmitGoverned(at, tid, class, 0, RetryPolicy{}, false); err != nil {
					t.Errorf("submit %s: %v", tid, err)
					return
				}
				_ = g.Stats()
			}
		}()
	}
	wg.Wait()
	st := g.StatsAt(sim.Day)
	if st.Routed != 4*per {
		t.Errorf("routed = %d, want %d", st.Routed, 4*per)
	}
	if got := len(g.AppendRecordsAt(nil, sim.Day)); got != 4*per {
		t.Errorf("%d records, want %d", got, 4*per)
	}
}

// TestSnapshotCostIndependentOfLogLength: a group's snapshot is taken on
// every GET /v1/groups and on every admission brownout tick, so it must not
// walk the record log. Outside the monitor the only way to walk the log is to
// materialise it, which allocates 64 bytes a record, so the bytes one
// snapshot allocates are compared between a short log and a long one (a
// count, not a wall time; internal/monitor pins that the attainment itself
// is read off a running count).
func TestSnapshotCostIndependentOfLogLength(t *testing.T) {
	eng := sim.NewEngine()
	g := newGroup(t, eng, "TG-0001", "t1", "t2")
	g.Bind(sim.NewDomain(eng))
	cl := q1(t)
	grow := func(n int) {
		for i := 0; i < n; i++ {
			// Every fourth query misses its target.
			g.Monitor.QueryFinished(monitor.QueryRecord{Tenant: "t1", Class: cl,
				Finish: sim.Time(1+i%4/3) * sim.Second, SLATarget: sim.Second, MPPDB: "TG-0001-db0"})
		}
	}
	bytesPerSnapshot := func() float64 {
		const runs = 100
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if st := g.Stats(); st.SLAAttainment != 0.75 {
				t.Fatalf("attainment = %v over %d records, want 0.75", st.SLAAttainment, g.Monitor.RecordCount())
			}
		}
		goruntime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	grow(100)
	short := bytesPerSnapshot()
	grow(100_000)
	long := bytesPerSnapshot()
	t.Logf("a snapshot allocates %.0f bytes over 100 records, %.0f over 100,100", short, long)
	if long > short+1024 {
		t.Errorf("a snapshot allocates %.0f bytes over 100 records and %.0f over 100,100: it reads the log", short, long)
	}
}
