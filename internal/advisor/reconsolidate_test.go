package advisor

import (
	"testing"

	"repro/internal/epoch"
	"repro/internal/sim"
	"repro/internal/workload"
)

// reconWorld plans 12 tenants in 4 disjoint office windows.
func reconWorld(t *testing.T) (*Advisor, *Plan, []*workload.TenantLog) {
	t.Helper()
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	logs := officeLogs(12, 2, 4)
	plan, err := a.Plan(logs, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	return a, plan, logs
}

func TestReconsolidateNoChurnKeepsEverything(t *testing.T) {
	a, plan, logs := reconWorld(t)
	next, rep, err := a.Reconsolidate(ReconsolidationInput{Previous: plan, Logs: logs}, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KeptGroups != len(plan.Groups) {
		t.Errorf("kept %d of %d groups", rep.KeptGroups, len(plan.Groups))
	}
	if rep.RepackedTenants != 0 || len(rep.MovedTenants) != 0 || rep.DataToMoveGB != 0 {
		t.Errorf("stable cycle reported churn: %+v", rep)
	}
	if next.NodesUsed() != plan.NodesUsed() {
		t.Errorf("node usage changed without churn: %d vs %d", next.NodesUsed(), plan.NodesUsed())
	}
}

func TestReconsolidateDeparture(t *testing.T) {
	a, plan, prev := reconWorld(t)
	// Remove one tenant from the population.
	gone := plan.Groups[0].TenantIDs[0]
	var logs []*workload.TenantLog
	for _, tl := range prev {
		if tl.Tenant.ID != gone {
			logs = append(logs, tl)
		}
	}
	next, rep, err := a.Reconsolidate(ReconsolidationInput{Previous: plan, Logs: logs}, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Departed) != 1 || rep.Departed[0] != gone {
		t.Errorf("departed = %v, want [%s]", rep.Departed, gone)
	}
	// The departed tenant's groupmates get repacked.
	want := len(plan.Groups[0].TenantIDs) - 1
	if rep.RepackedTenants != want {
		t.Errorf("repacked %d tenants, want %d", rep.RepackedTenants, want)
	}
	// Every surviving tenant is placed exactly once.
	placed := map[string]int{}
	for _, g := range next.Groups {
		for _, id := range g.TenantIDs {
			placed[id]++
		}
	}
	for _, tl := range logs {
		if placed[tl.Tenant.ID] != 1 {
			t.Errorf("tenant %s placed %d times", tl.Tenant.ID, placed[tl.Tenant.ID])
		}
	}
	if placed[gone] != 0 {
		t.Error("departed tenant still placed")
	}
}

func TestReconsolidateNewTenantAndFlaggedGroup(t *testing.T) {
	a, plan, logs := reconWorld(t)
	// A new tenant arrives with activity in window 0.
	newbie := mkLog("Tnew", 2, epoch.Activity{
		{Start: 10 * sim.Minute, End: 40 * sim.Minute},
	})
	logs = append(logs, newbie)
	flag := plan.Groups[len(plan.Groups)-1].ID
	next, rep, err := a.Reconsolidate(ReconsolidationInput{
		Previous:      plan,
		Logs:          logs,
		FlaggedGroups: []string{flag},
	}, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NewTenants) != 1 || rep.NewTenants[0] != "Tnew" {
		t.Errorf("new tenants = %v", rep.NewTenants)
	}
	if rep.KeptGroups != len(plan.Groups)-1 {
		t.Errorf("kept %d groups, want %d (one flagged)", rep.KeptGroups, len(plan.Groups)-1)
	}
	// The new tenant must be placed and counted as moved (needs loading).
	if _, ok := next.Group("Tnew"); !ok {
		t.Fatal("new tenant not placed")
	}
	foundMoved := false
	for _, id := range rep.MovedTenants {
		if id == "Tnew" {
			foundMoved = true
		}
	}
	if !foundMoved {
		t.Error("new tenant not in the moved list")
	}
	if rep.DataToMoveGB < newbie.Tenant.DataGB*float64(a.cfg.R) {
		t.Errorf("DataToMoveGB = %.0f, must cover the new tenant's %g GB × R",
			rep.DataToMoveGB, newbie.Tenant.DataGB)
	}
	if rep.MaxProvisionTime <= 0 {
		t.Error("no provisioning estimate for the migration")
	}
}

func TestReconsolidateRepacksNowInfeasibleGroup(t *testing.T) {
	a, plan, prev := reconWorld(t)
	// Make every member of group 0 continuously active in fresh history —
	// the group's TTP collapses and it must be repacked even though it is
	// not flagged and nobody departed. (A continuously active tenant also
	// trips the always-active exclusion, which is fine: it must not stay in
	// the kept group either way.)
	g0 := map[string]bool{}
	for _, id := range plan.Groups[0].TenantIDs {
		g0[id] = true
	}
	var logs []*workload.TenantLog
	for _, tl := range prev {
		if g0[tl.Tenant.ID] {
			tl = mkLog(tl.Tenant.ID, tl.Tenant.Nodes, epoch.Activity{{Start: 0, End: sim.Day}})
		}
		logs = append(logs, tl)
	}
	next, rep, err := a.Reconsolidate(ReconsolidationInput{Previous: plan, Logs: logs}, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KeptGroups != len(plan.Groups)-1 {
		t.Errorf("kept %d groups, want %d (one infeasible)", rep.KeptGroups, len(plan.Groups)-1)
	}
	// The now-hot tenants end up excluded (always active), not grouped.
	for id := range g0 {
		if _, ok := next.Group(id); ok {
			t.Errorf("always-active tenant %s still consolidated", id)
		}
	}
}

func TestReconsolidateLastTenantOfGroupDeparts(t *testing.T) {
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A population of one: the plan has exactly one single-tenant group.
	solo := mkLog("Tsolo", 2, epoch.Activity{{Start: sim.Hour, End: 2 * sim.Hour}})
	plan, err := a.Plan([]*workload.TenantLog{solo}, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 1 || len(plan.Groups[0].TenantIDs) != 1 {
		t.Fatalf("want one single-tenant group, got %+v", plan.Groups)
	}
	// The tenant de-registers: the next cycle's population is empty.
	next, rep, err := a.Reconsolidate(ReconsolidationInput{Previous: plan, Logs: nil}, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(next.Groups) != 0 {
		t.Errorf("empty population still has groups: %+v", next.Groups)
	}
	if len(rep.Departed) != 1 || rep.Departed[0] != "Tsolo" {
		t.Errorf("departed = %v, want [Tsolo]", rep.Departed)
	}
	if rep.KeptGroups != 0 || rep.RepackedTenants != 0 {
		t.Errorf("kept=%d repacked=%d, want 0/0", rep.KeptGroups, rep.RepackedTenants)
	}
	if len(rep.Decisions) != 1 || rep.Decisions[0].Kept || rep.Decisions[0].Reason != ReasonDepartedMember {
		t.Errorf("decisions = %+v, want one repack for departed-member", rep.Decisions)
	}
}

func TestReconsolidateEveryGroupFlagged(t *testing.T) {
	a, plan, logs := reconWorld(t)
	var flags []string
	for _, g := range plan.Groups {
		flags = append(flags, g.ID)
	}
	next, rep, err := a.Reconsolidate(ReconsolidationInput{
		Previous:      plan,
		Logs:          logs,
		FlaggedGroups: flags,
	}, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KeptGroups != 0 {
		t.Errorf("kept %d groups despite flagging all", rep.KeptGroups)
	}
	if rep.RepackedTenants != len(logs) {
		t.Errorf("repacked %d tenants, want all %d", rep.RepackedTenants, len(logs))
	}
	if len(rep.Decisions) != len(plan.Groups) {
		t.Fatalf("got %d decisions, want %d", len(rep.Decisions), len(plan.Groups))
	}
	for _, d := range rep.Decisions {
		if d.Kept || d.Reason != ReasonFlagged {
			t.Errorf("decision %+v, want repack/flagged", d)
		}
	}
	// Everyone must be placed exactly once in the fresh plan.
	placed := map[string]int{}
	for _, g := range next.Groups {
		for _, id := range g.TenantIDs {
			placed[id]++
		}
	}
	for _, tl := range logs {
		if placed[tl.Tenant.ID] != 1 {
			t.Errorf("tenant %s placed %d times", tl.Tenant.ID, placed[tl.Tenant.ID])
		}
	}
}

func TestReconsolidateJoinDuringGroupDeparture(t *testing.T) {
	a, plan, prev := reconWorld(t)
	// One member of group 0 departs while a new tenant with the same
	// activity shape joins in the same cycle: the join must land in the
	// repack pool alongside the departed tenant's groupmates.
	gone := plan.Groups[0].TenantIDs[0]
	var goneAct epoch.Activity
	var logs []*workload.TenantLog
	for _, tl := range prev {
		if tl.Tenant.ID == gone {
			goneAct = tl.Activity
			continue
		}
		logs = append(logs, tl)
	}
	logs = append(logs, mkLog("Tjoin", 2, goneAct))
	next, rep, err := a.Reconsolidate(ReconsolidationInput{Previous: plan, Logs: logs}, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Departed) != 1 || rep.Departed[0] != gone {
		t.Errorf("departed = %v, want [%s]", rep.Departed, gone)
	}
	if len(rep.NewTenants) != 1 || rep.NewTenants[0] != "Tjoin" {
		t.Errorf("new tenants = %v, want [Tjoin]", rep.NewTenants)
	}
	// Pool = surviving groupmates of group 0 + the joiner.
	want := len(plan.Groups[0].TenantIDs) - 1 + 1
	if rep.RepackedTenants != want {
		t.Errorf("repacked %d tenants, want %d", rep.RepackedTenants, want)
	}
	if _, ok := next.Group("Tjoin"); !ok {
		t.Error("joiner not placed")
	}
	if _, ok := next.Group(gone); ok {
		t.Error("departed tenant still placed")
	}
	// The disturbed group repacks for the departure; the others keep.
	for i, d := range rep.Decisions {
		if plan.Groups[i].ID != d.Group {
			t.Fatalf("decision %d out of plan order: %s vs %s", i, d.Group, plan.Groups[i].ID)
		}
		if d.Group == plan.Groups[0].ID {
			if d.Kept || d.Reason != ReasonDepartedMember {
				t.Errorf("group 0 decision %+v, want repack/departed-member", d)
			}
		} else if !d.Kept || d.Reason != ReasonUnflagged {
			t.Errorf("decision %+v, want kept/unflagged", d)
		}
	}
}

func TestReconsolidateRequiresPrevious(t *testing.T) {
	a, _, logs := reconWorld(t)
	if _, _, err := a.Reconsolidate(ReconsolidationInput{Logs: logs}, sim.Day); err == nil {
		t.Error("missing previous plan accepted")
	}
}

// TestReconsolidateWithoutRepackingKeepsAlgorithm: a cycle whose sub-plan
// solves nothing — nobody to repack, or everybody repacked excluded — used to
// come back with no algorithm name, which GET /v1/plan then served as "".
func TestReconsolidateWithoutRepackingKeepsAlgorithm(t *testing.T) {
	cfg := DefaultConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logs := officeLogs(60, 2, 4)
	plan, err := a.Plan(logs, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm == "" {
		t.Fatal("plan names no algorithm")
	}
	next, rep, err := a.Reconsolidate(ReconsolidationInput{Previous: plan, Logs: logs}, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepackedTenants != 0 || next.Algorithm != plan.Algorithm {
		t.Errorf("undisturbed cycle: %d repacked, algorithm %q, want 0 and %q", rep.RepackedTenants, next.Algorithm, plan.Algorithm)
	}

	// The one flagged group's members all outgrew the data cap.
	flagged := plan.Groups[0]
	big := map[string]bool{}
	for _, id := range flagged.TenantIDs {
		big[id] = true
	}
	var fresh []*workload.TenantLog
	for _, tl := range logs {
		if big[tl.Tenant.ID] {
			tl = mkLog(tl.Tenant.ID, tl.Tenant.Nodes, tl.Activity)
			tl.Tenant.DataGB = 2 * cfg.MaxDataGB
		}
		fresh = append(fresh, tl)
	}
	next, rep, err = a.Reconsolidate(ReconsolidationInput{Previous: plan, Logs: fresh, FlaggedGroups: []string{flagged.ID}}, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(next.Excluded) != len(flagged.TenantIDs) || rep.KeptGroups != len(plan.Groups)-1 || next.Algorithm != plan.Algorithm {
		t.Errorf("all repacked tenants excluded: %d excluded of %d, kept %d of %d groups, algorithm %q, want %q",
			len(next.Excluded), len(flagged.TenantIDs), rep.KeptGroups, len(plan.Groups), next.Algorithm, plan.Algorithm)
	}
}
