package thrifty

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/epoch"
	"repro/internal/sim"
	"repro/internal/workload"
)

// digestPlan hashes everything a plan decides — every group's members, design
// and statistics (TTP to 17 digits, enough to tell any two float64 apart), the
// exclusions with their reasons, the node totals — and, for a
// re-consolidation, its whole report. SolveTime is wall clock and stays out.
func digestPlan(t *testing.T, p *Plan, rep *ReconsolidationReport) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "algorithm=%s shared=false requested=%d used=%d\n", p.Algorithm, p.RequestedNodes, p.NodesUsed())
	for _, g := range p.Groups {
		fmt.Fprintf(h, "%s %v %+v ttp=%.17g max=%d\n", g.ID, g.TenantIDs, g.Design, g.TTP, g.MaxActive)
	}
	for _, e := range p.Excluded {
		fmt.Fprintf(h, "excluded %s %q %d\n", e.TenantID, e.Reason, e.Nodes)
	}
	if rep != nil {
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestPlanDigestPinned pins the planner's output, not just its shape: the
// digests below were taken on commit c4b90b4, before groups were measured by
// CountSet.Fill and before the advisor's front end read each log once, so a
// change to either that moves a member, a TTP bit, an exclusion or a report
// field fails here. Both entry points solve size classes on as many workers
// as GOMAXPROCS allows, so each digest is taken at three widths.
func TestPlanDigestPinned(t *testing.T) {
	pinned := []struct {
		seed         int64
		plan, replan string
	}{
		{1, "71fb0ea5e941358c", "dbde85d2454d65b3"},
		{2, "3ddecfed295eaea0", "39721ed914a700de"},
		{3, "eae163bce754b5d9", "015427fbc2c41cb8"},
	}
	for _, want := range pinned {
		w, err := GenerateWorkload(WorkloadConfig{Tenants: 200, Days: 7, SessionsPerClass: 10, Seed: want.seed})
		if err != nil {
			t.Fatal(err)
		}
		// Generated tenants are active about 1% of the time and never burst,
		// so the exclusion rules get hand-made subjects: one tenant busy 95%
		// of the horizon, one bursting every third day, one on two consecutive
		// days across midnight, one bursting irregularly (it stays
		// consolidated), and a data cap the largest size class exceeds.
		cfg := DefaultPlanConfig()
		cfg.MaxDataGB = 2000
		var subjects []*workload.TenantLog
		for _, tl := range w.Logs {
			if tl.Tenant.DataGB <= cfg.MaxDataGB && len(subjects) < 4 {
				subjects = append(subjects, tl)
			}
		}
		busy := func(tl *workload.TenantLog, from, to sim.Time) {
			tl.Activity = tl.Activity.Union(epoch.Activity{{Start: from, End: to}})
		}
		for _, tl := range subjects {
			for day := sim.Time(0); day < 7; day++ { // no idle days: the burst baseline is the median active day
				busy(tl, day*sim.Day+12*sim.Hour, day*sim.Day+12*sim.Hour+10*sim.Minute)
			}
		}
		busy(subjects[0], 0, w.Horizon*95/100)
		for _, day := range []sim.Time{1, 4} {
			busy(subjects[1], day*sim.Day+2*sim.Hour, day*sim.Day+10*sim.Hour)
		}
		for _, day := range []sim.Time{2, 3} { // across midnight
			busy(subjects[2], day*sim.Day+16*sim.Hour, (day+1)*sim.Day+sim.Hour)
		}
		for _, day := range []sim.Time{0, 1, 5} {
			busy(subjects[3], day*sim.Day+6*sim.Hour, day*sim.Day+15*sim.Hour)
		}
		for _, procs := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("seed=%d/GOMAXPROCS=%d", want.seed, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				plan, err := PlanDeployment(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var flagged []string
				for i := 0; i < len(plan.Groups); i += 10 {
					flagged = append(flagged, plan.Groups[i].ID)
				}
				next, rep, err := Reconsolidate(w, plan, cfg, flagged)
				if err != nil {
					t.Fatal(err)
				}
				reasons := map[byte]int{}
				for _, e := range plan.Excluded {
					reasons[e.Reason[0]]++ // "oversized", "always active", "regular bursts"
				}
				if reasons['o'] == 0 || reasons['a'] != 1 || reasons['r'] != 2 || rep.KeptGroups == 0 || rep.RepackedTenants == 0 {
					t.Fatalf("exclusions by reason %v, %d groups kept, %d tenants repacked: the digest would not cover every path",
						reasons, rep.KeptGroups, rep.RepackedTenants)
				}
				if got := digestPlan(t, plan, nil); got != want.plan {
					t.Errorf("PlanDeployment digest %s, pinned %s", got, want.plan)
				}
				if got := digestPlan(t, next, rep); got != want.replan {
					t.Errorf("Reconsolidate digest %s, pinned %s", got, want.replan)
				}
			})
		}
	}
}
