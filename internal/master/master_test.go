package master

import (
	"testing"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/epoch"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// plannedWorld builds a 6-tenant plan (two disjoint office windows) plus the
// tenant index the master needs.
func plannedWorld(t *testing.T) (*advisor.Plan, map[string]*tenant.Tenant) {
	t.Helper()
	var logs []*workload.TenantLog
	tenants := map[string]*tenant.Tenant{}
	for i := 0; i < 6; i++ {
		id := "T" + string(rune('a'+i))
		tn := &tenant.Tenant{ID: id, Nodes: 2, DataGB: 200, Users: 1, Suite: queries.TPCH}
		tenants[id] = tn
		w := sim.Time(i%3) * 4 * sim.Hour
		logs = append(logs, &workload.TenantLog{
			Tenant:   tn,
			Activity: epoch.Activity{{Start: w, End: w + sim.Hour}},
		})
	}
	cfg := advisor.DefaultConfig()
	cfg.R = 2
	a, err := advisor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := a.Plan(logs, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) == 0 {
		t.Fatal("planner produced no groups")
	}
	return plan, tenants
}

func TestDeployImmediate(t *testing.T) {
	plan, tenants := plannedWorld(t)
	pool := cluster.NewPool(100)
	m := New(pool, Options{Immediate: true})
	dep, err := m.Deploy(plan, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if got := dep.NodesUsed(); got != plan.NodesUsed() {
		t.Errorf("NodesUsed = %d, plan says %d", got, plan.NodesUsed())
	}
	// Unused nodes remain hibernated.
	if got := pool.CountState(cluster.Hibernated); got != 100-plan.NodesUsed() {
		t.Errorf("hibernated = %d", got)
	}
	for _, g := range dep.Groups() {
		if len(g.Instances) != g.Plan.Design.A {
			t.Errorf("group %s has %d instances, want %d", g.Plan.ID, len(g.Instances), g.Plan.Design.A)
		}
		for _, inst := range g.Instances {
			if inst.State() != mppdb.Ready {
				t.Errorf("instance %s is %v, want ready (immediate)", inst.ID(), inst.State())
			}
			// TDD placement: every member on every instance.
			for _, id := range g.Plan.TenantIDs {
				if !inst.HasTenant(id) {
					t.Errorf("instance %s lacks tenant %s", inst.ID(), id)
				}
			}
		}
		if dep.ReadyAt(g.Plan.ID) != 0 {
			t.Errorf("immediate deployment has ReadyAt %v", dep.ReadyAt(g.Plan.ID))
		}
	}
	// Query flow end to end, through the tenant's group inside its domain.
	cl, _ := queries.Default().ByID("TPCH-Q1")
	g, ok := dep.GroupFor("Ta")
	if !ok {
		t.Fatal("GroupFor failed")
	}
	var db string
	g.Domain().Do(func(*sim.Engine) { db, err = g.Router.Submit("Ta", cl) })
	if err != nil {
		t.Fatal(err)
	}
	if db == "" {
		t.Error("no instance chosen")
	}
	dep.Plane().Domains().Drive(nil, sim.Day)
	recs := dep.Records()
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	if !recs[0].SLAMet() {
		t.Errorf("query missed SLA: %.2f", recs[0].Normalized())
	}
	if _, ok := dep.GroupFor("ghost"); ok {
		t.Error("unknown tenant indexed")
	}
}

func TestDeployWithProvisioningDelay(t *testing.T) {
	plan, tenants := plannedWorld(t)
	pool := cluster.NewPool(100)
	m := New(pool, Options{ParallelLoad: true})
	dep, err := m.Deploy(plan, tenants)
	if err != nil {
		t.Fatal(err)
	}
	g := dep.Groups()[0]
	for _, inst := range g.Instances {
		if inst.State() != mppdb.Provisioning {
			t.Errorf("instance %s is %v before provisioning completes", inst.ID(), inst.State())
		}
	}
	ready := dep.ReadyAt(g.Plan.ID)
	if ready <= 0 {
		t.Fatal("no provisioning delay recorded")
	}
	// Until ready, routing fails (no ready MPPDB).
	cl, _ := queries.Default().ByID("TPCH-Q6")
	g.Domain().Do(func(*sim.Engine) {
		if _, err := g.Router.Submit(g.Plan.TenantIDs[0], cl); err == nil {
			t.Error("query accepted before provisioning completed")
		}
	})
	g.Domain().Advance(ready, func(*sim.Engine) {
		for _, inst := range g.Instances {
			if inst.State() != mppdb.Ready {
				t.Errorf("instance %s is %v after ReadyAt", inst.ID(), inst.State())
			}
		}
		if _, err := g.Router.Submit(g.Plan.TenantIDs[0], cl); err != nil {
			t.Errorf("query after provisioning: %v", err)
		}
	})
}

func TestDeployPoolTooSmall(t *testing.T) {
	plan, tenants := plannedWorld(t)
	pool := cluster.NewPool(plan.NodesUsed() - 1)
	m := New(pool, Options{Immediate: true})
	if _, err := m.Deploy(plan, tenants); err == nil {
		t.Error("deployment on an undersized pool accepted")
	}
}

func TestDeployUnknownTenant(t *testing.T) {
	plan, tenants := plannedWorld(t)
	delete(tenants, plan.Groups[0].TenantIDs[0])
	m := New(cluster.NewPool(100), Options{Immediate: true})
	if _, err := m.Deploy(plan, tenants); err == nil {
		t.Error("plan with unknown tenant accepted")
	}
}
