package advisor

import (
	"testing"

	"repro/internal/epoch"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestShareWeights: off → nil; on with an explicit model → that model's
// weights; on without a model → weights derived from the default catalog.
func TestShareWeights(t *testing.T) {
	cfg := DefaultConfig()
	if w := cfg.ShareWeights(); w != nil {
		t.Fatalf("sharing off produced weights %v", w)
	}
	cfg.Sharing = true
	cfg.Share = &queries.ShareModel{R: 3, W: []float64{0.4, 0.3}}
	if w := cfg.ShareWeights(); len(w) != 2 || w[0] != 0.4 || w[1] != 0.3 {
		t.Fatalf("explicit model weights = %v", w)
	}
	cfg.Share = nil
	w := cfg.ShareWeights()
	if len(w) == 0 {
		t.Fatal("derived model produced no weights")
	}
	for i, v := range w {
		if v <= 0 || v >= 1 {
			t.Fatalf("derived weight [%d]=%v outside (0,1)", i, v)
		}
	}
}

func TestNewRejectsShareModelMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sharing = true
	cfg.Share = &queries.ShareModel{R: 2, W: []float64{0.5}}
	if _, err := New(cfg); err == nil {
		t.Fatal("share model with R=2 accepted for R=3 advisor")
	}
}

// TestPlanSharingPacksDenser: two tenants overlapping 2h of a day fail the
// plain test at P=0.95/R=1 (TTP ≈ 0.917) but pass the credited one with
// weight 0.7 (≈ 0.975), so the sharing plan merges them into one group.
func TestPlanSharingPacksDenser(t *testing.T) {
	logs := []*workload.TenantLog{
		mkLog("s1", 4, epoch.Activity{{Start: 0, End: 2 * sim.Hour}}),
		mkLog("s2", 4, epoch.Activity{{Start: 0, End: 2 * sim.Hour}}),
	}
	cfg := DefaultConfig()
	cfg.R = 1
	cfg.P = 0.95
	plain, err := mustNew(t, cfg).Plan(logs, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Groups) != 2 || plain.Shared {
		t.Fatalf("plain: %d groups, Shared=%v", len(plain.Groups), plain.Shared)
	}
	cfg.Sharing = true
	cfg.Share = &queries.ShareModel{R: 1, W: []float64{0.7}}
	shared, err := mustNew(t, cfg).Plan(logs, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.Groups) != 1 || !shared.Shared {
		t.Fatalf("shared: %d groups, Shared=%v", len(shared.Groups), shared.Shared)
	}
	if shared.NodesUsed() >= plain.NodesUsed() {
		t.Fatalf("sharing saved nothing: %d vs %d nodes", shared.NodesUsed(), plain.NodesUsed())
	}
}

// TestPlanSharingNeverCostsMore: the both-solve guard means turning Sharing
// on can only keep or reduce the node count, never increase it — greedy
// T_best alone would not guarantee that (see grouping/share_test.go).
func TestPlanSharingNeverCostsMore(t *testing.T) {
	logs := officeLogs(24, 4, 4)
	cfg := DefaultConfig()
	plain, err := mustNew(t, cfg).Plan(logs, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sharing = true
	shared, err := mustNew(t, cfg).Plan(logs, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if shared.NodesUsed() > plain.NodesUsed() {
		t.Fatalf("sharing plan costs more: %d vs %d nodes", shared.NodesUsed(), plain.NodesUsed())
	}
	if !shared.Shared && shared.NodesUsed() != plain.NodesUsed() {
		t.Fatal("Shared=false but node counts differ")
	}
}

// TestReconsolidateKeepsSharingCreditedGroups: the TestPlanSharingPacksDenser
// group is feasible only with the share credit (plain TTP ≈ 0.917 < P = 0.95
// ≤ credited ≈ 0.975). A stable cycle must test it under the rule it was
// adopted under and keep it — not declare a capacity violation and repack it
// every cycle — report the credited statistics, and carry Plan.Shared forward
// so the cycle after that does the same.
func TestReconsolidateKeepsSharingCreditedGroups(t *testing.T) {
	logs := []*workload.TenantLog{
		mkLog("s1", 4, epoch.Activity{{Start: 0, End: 2 * sim.Hour}}),
		mkLog("s2", 4, epoch.Activity{{Start: 0, End: 2 * sim.Hour}}),
	}
	cfg := DefaultConfig()
	cfg.R = 1
	cfg.P = 0.95
	cfg.Sharing = true
	cfg.Share = &queries.ShareModel{R: 1, W: []float64{0.7}}
	a := mustNew(t, cfg)
	plan, err := a.Plan(logs, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 1 || !plan.Shared {
		t.Fatalf("setup: %d groups, Shared=%v", len(plan.Groups), plan.Shared)
	}
	for cycle := 1; cycle <= 2; cycle++ {
		next, rep, err := a.Reconsolidate(ReconsolidationInput{Previous: plan, Logs: logs}, sim.Day)
		if err != nil {
			t.Fatal(err)
		}
		if rep.KeptGroups != 1 || rep.RepackedTenants != 0 {
			t.Fatalf("cycle %d: kept %d groups, repacked %d tenants; decisions %+v",
				cycle, rep.KeptGroups, rep.RepackedTenants, rep.Decisions)
		}
		if !next.Shared {
			t.Fatalf("cycle %d: Plan.Shared dropped", cycle)
		}
		if got := next.Groups[0].TTP; got < cfg.P {
			t.Fatalf("cycle %d: kept group reports TTP %.4f, want the credited one ≥ %.2f", cycle, got, cfg.P)
		}
		plan = next
	}
	// The same group under a plan that was not adopted under the credit
	// answers to the plain test.
	plain := *plan
	plain.Shared = false
	_, rep, err := a.Reconsolidate(ReconsolidationInput{Previous: &plain, Logs: logs}, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.Decisions[0]; d.Kept || d.Reason != ReasonCapacityViolation {
		t.Fatalf("plain-rule decision = %+v, want a capacity violation", d)
	}
}

func mustNew(t *testing.T, cfg Config) *Advisor {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
