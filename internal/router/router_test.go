package router

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// rig builds a group of A MPPDBs on one shared interner (how the Deployment
// Master wires groups) with the given tenants deployed everywhere.
type rig struct {
	eng *sim.Engine
	dbs []*mppdb.Instance
	mon *monitor.GroupMonitor
	r   *GroupRouter
	cl  *queries.Class
}

func newRig(t *testing.T, a, nodes int, members ...*tenant.Tenant) *rig {
	t.Helper()
	eng := sim.NewEngine()
	in := tenant.NewInterner()
	var dbs []*mppdb.Instance
	for i := 0; i < a; i++ {
		db := mppdb.NewInterned(eng, "db"+string(rune('0'+i)), nodes, in)
		for _, m := range members {
			db.DeployTenant(m.ID, m.DataGB)
		}
		dbs = append(dbs, db)
	}
	mon, err := monitor.NewGroup(eng, "tg", a, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewGroup(eng, "tg", dbs, members, mon)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, dbs: dbs, mon: mon, r: r,
		cl: &queries.Class{ID: "q", FixedSec: 1, ScanSecGB: 0.1}}
}

func tn(id string, nodes int) *tenant.Tenant {
	return &tenant.Tenant{ID: id, Nodes: nodes, DataGB: 100 * float64(nodes), Users: 1}
}

func TestRouterBasicFlow(t *testing.T) {
	r := newRig(t, 3, 4, tn("a", 2), tn("b", 2))
	db, err := r.r.SubmitRef(r.r.Ref("a"), r.cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if db != "db0" {
		t.Errorf("first query routed to %s, want db0 (free G₀)", db)
	}
	db, err = r.r.SubmitRef(r.r.Ref("b"), r.cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if db != "db1" {
		t.Errorf("second tenant routed to %s, want db1", db)
	}
	if r.mon.ActiveTenants() != 2 {
		t.Errorf("monitor sees %d active tenants", r.mon.ActiveTenants())
	}
	r.eng.RunAll()
	results := r.mon.Records()
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	for _, rec := range results {
		// Group MPPDBs have 4 nodes; tenants requested 2 → queries run
		// faster than the SLA target.
		if !rec.SLAMet() {
			t.Errorf("query for %s missed SLA: normalized %.2f", rec.Tenant, rec.Normalized())
		}
	}
	if r.r.Routed() != 2 || r.r.Overflowed() != 0 {
		t.Errorf("Routed=%d Overflowed=%d", r.r.Routed(), r.r.Overflowed())
	}
}

func TestRouterAffinity(t *testing.T) {
	r := newRig(t, 3, 2, tn("a", 2))
	first, _ := r.r.SubmitRef(r.r.Ref("a"), r.cl, 0)
	second, _ := r.r.SubmitRef(r.r.Ref("a"), r.cl, 0)
	if first != second {
		t.Errorf("concurrent queries of one tenant split across %s and %s", first, second)
	}
}

func TestRouterOverflowCount(t *testing.T) {
	r := newRig(t, 2, 2, tn("a", 2), tn("b", 2), tn("c", 2))
	r.r.SubmitRef(r.r.Ref("a"), r.cl, 0)
	r.r.SubmitRef(r.r.Ref("b"), r.cl, 0)
	// Third active tenant with A=2 → overflow to busy G₀.
	db, err := r.r.SubmitRef(r.r.Ref("c"), r.cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if db != "db0" {
		t.Errorf("overflow routed to %s, want db0", db)
	}
	if r.r.Overflowed() != 1 {
		t.Errorf("Overflowed = %d, want 1", r.r.Overflowed())
	}
}

func TestRouterUnknownTenant(t *testing.T) {
	r := newRig(t, 2, 2, tn("a", 2))
	if _, err := r.r.SubmitRef(r.r.Ref("ghost"), r.cl, 0); err == nil {
		t.Error("unknown tenant accepted")
	}
}

func TestNewGroupValidatesDeployment(t *testing.T) {
	eng := sim.NewEngine()
	db := mppdb.New(eng, "db0", 2)
	// Tenant not deployed on the instance.
	if _, err := NewGroup(eng, "g", []*mppdb.Instance{db}, []*tenant.Tenant{tn("a", 2)}, nil); err == nil {
		t.Error("missing deployment accepted")
	}
	if _, err := NewGroup(eng, "g", nil, nil, nil); err == nil {
		t.Error("no MPPDBs accepted")
	}
	// Instances on private interners: a ref means a different tenant on each.
	a, b := mppdb.New(eng, "a0", 2), mppdb.New(eng, "a1", 2)
	a.DeployTenant("a", 200)
	b.DeployTenant("a", 200)
	if _, err := NewGroup(eng, "g", []*mppdb.Instance{a, b}, []*tenant.Tenant{tn("a", 2)}, nil); err == nil {
		t.Error("instances with private interners accepted")
	}
}

func TestRouterSkipsNonReadyInstances(t *testing.T) {
	r := newRig(t, 3, 2, tn("a", 2), tn("b", 2))
	r.dbs[0].SetState(mppdb.Loading)
	db, err := r.r.SubmitRef(r.r.Ref("a"), r.cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if db == "db0" {
		t.Error("query routed to a loading MPPDB")
	}
	r.dbs[1].SetState(mppdb.Stopped)
	r.dbs[2].SetState(mppdb.Provisioning)
	if _, err := r.r.SubmitRef(r.r.Ref("b"), r.cl, 0); err == nil {
		t.Error("routing with no ready MPPDB accepted")
	}
}

func TestOverride(t *testing.T) {
	r := newRig(t, 2, 2, tn("hog", 2), tn("b", 2))
	// Dedicated MPPDB for the over-active tenant, on a private interner as
	// the elastic scaler builds it: the tenant's ref there is not its group
	// ref (b is interned first).
	ded := mppdb.New(r.eng, "dedicated", 2)
	ded.DeployTenant("b", 200)
	ded.DeployTenant("hog", 200)

	if err := r.r.SetOverride("ghost", ded); err == nil {
		t.Error("override for unknown tenant accepted")
	}
	noData := mppdb.New(r.eng, "noData", 2)
	if err := r.r.SetOverride("hog", noData); err == nil {
		t.Error("override without tenant data accepted")
	}
	loading := mppdb.New(r.eng, "loading", 2)
	loading.DeployTenant("hog", 200)
	loading.SetState(mppdb.Loading)
	if err := r.r.SetOverride("hog", loading); err == nil {
		t.Error("override on non-ready MPPDB accepted")
	}

	if err := r.r.SetOverride("hog", ded); err != nil {
		t.Fatal(err)
	}
	if db, ok := r.r.Override("hog"); !ok || db != ded {
		t.Error("Override lookup wrong")
	}
	got, err := r.r.SubmitRef(r.r.Ref("hog"), r.cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != "dedicated" {
		t.Errorf("overridden tenant routed to %s", got)
	}
	if n := r.r.TenantInFlight("hog"); n != 1 {
		t.Errorf("%d of the overridden tenant's queries in flight, want 1", n)
	}
	// The monitor no longer counts the excluded tenant.
	if r.mon.ActiveTenants() != 0 {
		t.Errorf("excluded tenant counted: %d", r.mon.ActiveTenants())
	}
	// The query completes on the dedicated instance and reports through the
	// router to the monitor.
	r.eng.RunAll()
	if done := r.mon.Records(); len(done) != 1 || done[0].Tenant != "hog" || done[0].MPPDB != "dedicated" {
		t.Errorf("override completion not reported: %+v", done)
	}
	if r.r.TenantInFlight("hog") != 0 {
		t.Error("overridden tenant still in flight after completion")
	}
	// Other tenants unaffected.
	if db, _ := r.r.SubmitRef(r.r.Ref("b"), r.cl, 0); db == "dedicated" {
		t.Error("regular tenant routed to the dedicated MPPDB")
	}
}

func TestAccessors(t *testing.T) {
	r := newRig(t, 2, 2, tn("a", 2))
	if r.r.Group() != "tg" || r.r.Members() != 1 || !r.r.HasTenant("a") || r.r.HasTenant("x") {
		t.Error("accessors wrong")
	}
	if len(r.r.Instances()) != 2 {
		t.Error("Instances wrong")
	}

	if dup := newRig(t, 2, 2, tn("a", 2), tn("a", 2)); dup.r.Members() != 1 {
		t.Errorf("a member listed twice counts %d times", dup.r.Members())
	}
}

// TestQuarantineRouting: a quarantined instance is skipped by routing until
// it is the only ready choice left — a query is never dropped for the sake
// of a quarantine.
func TestQuarantineRouting(t *testing.T) {
	r := newRig(t, 2, 2, tn("a", 2), tn("b", 2))
	r.r.SetQuarantine("db0", true)
	db, err := r.r.SubmitRef(r.r.Ref("a"), r.cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if db == "db0" {
		t.Error("query routed to a quarantined instance")
	}
	r.r.SetQuarantine("db1", true)
	if _, err := r.r.SubmitRef(r.r.Ref("b"), r.cl, 0); err != nil {
		t.Errorf("submit with every instance quarantined dropped: %v", err)
	}
	r.eng.RunAll()
	if r.r.Routed() != 2 {
		t.Errorf("Routed = %d, want 2", r.r.Routed())
	}
}

// TestQuerySpans: a completed query's spans name the instance that served
// it, a query still in flight shows its route, and a refused submit its
// error.
func TestQuerySpans(t *testing.T) {
	r := newRig(t, 3, 2, tn("a", 2))
	hub := telemetry.NewHub(r.eng, 0.99)
	r.r.SetTelemetry(hub)
	if _, err := r.r.SubmitRef(r.r.Ref("a"), r.cl, 0); err != nil {
		t.Fatal(err)
	}
	r.eng.RunAll()
	if recs := r.mon.Records(); len(recs) != 1 || recs[0].MPPDB != "db0" {
		t.Fatalf("records %+v, want one served by db0", recs)
	}
	if _, err := r.r.SubmitRef(r.r.Ref("nobody"), r.cl, 0); err == nil {
		t.Fatal("unknown tenant routed")
	}
	for _, db := range r.dbs {
		db.SetState(mppdb.Provisioning)
	}
	if _, err := r.r.SubmitRef(r.r.Ref("a"), r.cl, 0); err == nil {
		t.Fatal("routed with no ready MPPDB")
	}
	r.dbs[1].SetState(mppdb.Ready)
	if _, err := r.r.SubmitRef(r.r.Ref("a"), r.cl, 0); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range hub.Tracer.Finished() {
		got = append(got, s.Name+" "+s.Attrs[0].Value)
	}
	want := []string{"route db0", "execute db0", "query tg", "route router: group tg has no ready MPPDB", "query tg", "route db1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spans %q, want %q", got, want)
	}
}
