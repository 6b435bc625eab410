package thrifty

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// smallWorkload generates a fast testbed shared by the facade tests.
func smallWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := GenerateWorkload(WorkloadConfig{
		Tenants:          40,
		Theta:            0.8,
		Sizes:            []int{2, 4},
		Days:             7,
		SessionsPerClass: 4,
		Seed:             5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateWorkloadDefaultsAndValidation(t *testing.T) {
	if _, err := GenerateWorkload(WorkloadConfig{Tenants: 0}); err == nil {
		t.Error("zero tenants accepted")
	}
	w := smallWorkload(t)
	if len(w.Logs) != 40 {
		t.Fatalf("%d logs", len(w.Logs))
	}
	if w.Horizon != 7*sim.Day {
		t.Errorf("horizon = %v", w.Horizon)
	}
	if len(w.Tenants()) != 40 {
		t.Error("tenant index wrong")
	}
}

func TestEndToEndPipeline(t *testing.T) {
	w := smallWorkload(t)
	cfg := DefaultPlanConfig()
	cfg.R = 2
	plan, err := PlanDeployment(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) == 0 {
		t.Fatal("no groups planned")
	}
	if plan.Effectiveness() <= 0 {
		t.Errorf("effectiveness = %v", plan.Effectiveness())
	}
	sys, err := Deploy(w, plan, DeployOptions{Immediate: true, SpareNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Deployment.NodesUsed() != plan.NodesUsed() {
		t.Errorf("deployed %d nodes, plan %d", sys.Deployment.NodesUsed(), plan.NodesUsed())
	}
	rep, err := sys.Replay(ReplayOptions{From: 0, To: 2 * sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted == 0 || len(rep.Records) == 0 {
		t.Fatalf("replay did nothing: %+v", rep)
	}
	if att := rep.SLAAttainment(); att < 0.95 {
		t.Errorf("SLA attainment %v", att)
	}
}

// TestShardedReplayTakeOverAndFailures: a take-over and a node failure in
// different groups each land on their own group's engine, the failure is
// repaired autonomously, an unknown group surfaces as an event error, and
// the records come out in deployment group order.
func TestShardedReplayTakeOverAndFailures(t *testing.T) {
	w := smallWorkload(t)
	cfg := DefaultPlanConfig()
	cfg.R = 2
	plan, err := PlanDeployment(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) < 2 {
		t.Fatalf("%d groups planned, need 2", len(plan.Groups))
	}
	sys, err := Deploy(w, plan, DeployOptions{Immediate: true, SpareNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.Groups[0].TenantIDs[0]
	quiet, err := sys.Replay(ReplayOptions{From: 0, To: 6 * sim.Hour})
	if err != nil {
		t.Fatal(err)
	}
	sys, err = Deploy(w, plan, DeployOptions{Immediate: true, SpareNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Replay(ReplayOptions{
		From:     0,
		To:       6 * sim.Hour,
		TakeOver: &TakeOver{Tenant: victim, Start: sim.Hour, Interval: 3 * time.Second, ClassID: "TPCH-Q1"},
		Failures: []Failure{
			{At: 2 * sim.Hour, Group: plan.Groups[1].ID, Instance: 0},
			{At: 2 * sim.Hour, Group: "TG-NOPE", Instance: 0},
		},
		DrainSlack: 3 * 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted <= quiet.Submitted {
		t.Errorf("take-over submitted nothing: %d queries with it, %d without", rep.Submitted, quiet.Submitted)
	}
	if rep.SubmitErrors != 0 || len(rep.Records) != rep.Submitted {
		t.Errorf("%d submitted, %d errors, %d completed", rep.Submitted, rep.SubmitErrors, len(rep.Records))
	}
	group := map[string]int{}
	for gi, g := range plan.Groups {
		for _, id := range g.TenantIDs {
			group[id] = gi
		}
	}
	for i := 1; i < len(rep.Records); i++ {
		if group[rep.Records[i].Tenant] < group[rep.Records[i-1].Tenant] {
			t.Fatalf("records not in deployment group order at %d", i)
		}
	}
	takeOvers := 0
	for _, ev := range sys.Telemetry().Events.Recent(0) {
		if ev.Type == telemetry.EventTakeOver {
			takeOvers++
		}
	}
	if takeOvers != 1 {
		t.Errorf("%d take-over events, want 1", takeOvers)
	}
	ok, bad := rep.FailureEvents[0], rep.FailureEvents[1]
	if ok.Err != "" || ok.RepairedAt <= ok.At {
		t.Errorf("failure not injected and repaired: %+v", ok)
	}
	if bad.Err == "" {
		t.Error("unknown group did not surface an error")
	}
	if len(rep.RecoveryEvents) != 1 {
		t.Errorf("%d recovery lifecycles, want 1", len(rep.RecoveryEvents))
	}
}

func TestDeployDomainsAndTriage(t *testing.T) {
	w := smallWorkload(t)
	cfg := DefaultPlanConfig()
	cfg.R = 2
	plan, err := PlanDeployment(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := DefaultRecoveryConfig()
	sys, err := Deploy(w, plan, DeployOptions{
		Immediate:  true,
		SpareNodes: 8,
		Domains:    3,
		Recovery:   &rcfg,
		Triage:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Pool.Domains() != 3 {
		t.Fatalf("pool domains = %d", sys.Pool.Domains())
	}
	// Spread placement puts a group's replica instances in different
	// domains: no replicated group may have all its instances in one rack.
	for _, g := range sys.Deployment.Groups() {
		if len(g.Instances) < 2 {
			continue
		}
		span := map[int]bool{}
		for _, inst := range g.Instances {
			for _, d := range sys.Pool.OwnerDomains(inst.ID()) {
				span[d] = true
			}
		}
		if len(span) < 2 {
			t.Fatalf("group %s collapsed into %d domain(s)", g.Plan.ID, len(span))
		}
	}
	rep, err := sys.Replay(ReplayOptions{From: 0, To: sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted == 0 {
		t.Fatalf("replay did nothing: %+v", rep)
	}
}

func TestSystemHandler(t *testing.T) {
	w := smallWorkload(t)
	plan, err := PlanDeployment(w, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(w, plan, DeployOptions{Immediate: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Handler(ServeOptions{TimeScale: 120})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Effectiveness float64 `json:"effectiveness"`
		Groups        []any   `json:"groups"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Groups) != len(plan.Groups) {
		t.Errorf("plan endpoint groups = %d, want %d", len(out.Groups), len(plan.Groups))
	}
}

func TestVariantWorkloads(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{
		Tenants:          30,
		Sizes:            []int{2},
		Days:             7,
		SessionsPerClass: 3,
		Variant:          workload.VariantSingleZoneNoLunch,
		Seed:             9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range w.Logs {
		if tl.Tenant.ZoneOffsetHours != 0 {
			t.Fatalf("single-zone variant placed tenant at %+d", tl.Tenant.ZoneOffsetHours)
		}
	}
}

func TestReconsolidateFacade(t *testing.T) {
	w := smallWorkload(t)
	cfg := DefaultPlanConfig()
	prev, err := PlanDeployment(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No churn: everything kept.
	next, rep, err := Reconsolidate(w, prev, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KeptGroups != len(prev.Groups) || rep.RepackedTenants != 0 {
		t.Errorf("stable cycle churned: %+v", rep)
	}
	if next.NodesUsed() != prev.NodesUsed() {
		t.Errorf("node usage drifted: %d vs %d", next.NodesUsed(), prev.NodesUsed())
	}
	// Flag one group: its members get repacked.
	flagged := prev.Groups[0].ID
	next2, rep2, err := Reconsolidate(w, prev, cfg, []string{flagged})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RepackedTenants != len(prev.Groups[0].TenantIDs) {
		t.Errorf("repacked %d, want %d", rep2.RepackedTenants, len(prev.Groups[0].TenantIDs))
	}
	for _, id := range prev.Groups[0].TenantIDs {
		if _, ok := next2.Group(id); !ok {
			t.Errorf("tenant %s lost in reconsolidation", id)
		}
	}
}
