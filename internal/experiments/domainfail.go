package experiments

import (
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/recovery/chaos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smallestShardFirst ranks a plan's groups by per-node data shard, smallest
// first (ties: more members). A domain outage is a recovery experiment: the
// per-node shard fixes the Table 5.1 reload that bounds how long a casualty
// stays degraded, and the whale groups consolidation produces (multi-TB
// shards packed onto two-node instances) would spend days reloading — far
// past any storm horizon — drowning the placement signal in reload tail no
// matter how the arms place or triage. Bounding the shard keeps repair on the
// storm's timescale, matching the paper's own ~hundred-GB-per-node Table 5.1
// loads.
func smallestShardFirst(plan *advisor.Plan, logs []*workload.TenantLog) func(a, b int) bool {
	data := map[string]float64{}
	for _, tl := range logs {
		data[tl.Tenant.ID] = tl.Tenant.DataGB
	}
	share := make([]float64, len(plan.Groups))
	for i := range plan.Groups {
		pg := &plan.Groups[i]
		var gb float64
		for _, id := range pg.TenantIDs {
			gb += data[id]
		}
		share[i] = gb / float64(pg.Design.N1)
	}
	return func(a, b int) bool {
		if share[a] != share[b] {
			return share[a] < share[b]
		}
		return len(plan.Groups[a].TenantIDs) > len(plan.Groups[b].TenantIDs)
	}
}

// DomainFail measures correlated-failure resilience: the same seeded schedule
// of whole-domain outages replays three times against identical tenants on a
// three-domain pool sized scarce (a fifth of spare capacity, so a domain loss
// outstrips the free list). Every arm recovers through the cluster scarcity
// triage and quarantine re-routing. The no-fault arm fixes the attainment
// ceiling; the bare arm (no spread placement, single-stream reloads) shows
// what a rack loss costs when groups can collapse into one domain; the
// protected arm adds spread-aware placement, parallel reloads and
// post-restoration re-spread. The verdict is the paper-style
// restoration bar: protected attainment within two points of no-fault, zero
// dropped queries everywhere, every pool leak-free.
func DomainFail(env *Env) ([]*Table, error) {
	const domains = 3
	acfg := advisor.DefaultConfig()
	acfg.FailureDomains = domains
	logs, plan, err := planDefault(env, acfg)
	if err != nil {
		return nil, err
	}
	w := carve(plan, logs, top(rank(plan, smallestShardFirst(plan, logs)), env.Scale.ReplayGroups))

	// One storm for every arm; an explicit empty schedule turns the
	// injection off for the baseline while keeping the replay identical.
	// The protected posture also re-replicates a casualty's shard from its
	// surviving peers in parallel; bare keeps the classic single-stream
	// reload. Recoveries queue behind the outage and pay Table 5.1 reloads
	// that run for hours per node on the largest groups.
	arm := func(spread bool, outages chaos.Outages) faultArm {
		used := w.plan.NodesUsed()
		return faultArm{cluster.NewPoolDomains(used+(used+4)/5, domains),
			master.Options{Immediate: true, ParallelLoad: spread, NoSpread: !spread}, outages}
	}
	res, err := runArms(env, w, chaos.Window{To: sim.Day, DrainSlack: 3 * 24 * time.Hour},
		arm(true, chaos.Outages{Schedule: []chaos.DomainOutage{}}),
		arm(false, chaos.Outages{}),
		arm(true, chaos.Outages{}))
	if err != nil {
		return nil, err
	}
	baseline, bare, protected := res[0], res[1], res[2]

	schedule := &Table{
		Title:   fmt.Sprintf("Correlated failure — injected domain outages (%d domains, seed %d)", domains, env.Seed),
		Columns: []string{"at", "domain", "duration"},
	}
	for _, o := range bare.OutageSchedule {
		schedule.AddRow(o.At.String(), o.Domain, o.Duration.String())
	}

	verdict := verifyArms(plan.Config.P, res)
	switch {
	case verdict != "":
	case protected.Attainment < baseline.Attainment-0.02:
		verdict = fmt.Sprintf("FAIL: protected attainment %.4f more than 2 points below no-fault %.4f",
			protected.Attainment, baseline.Attainment)
	case protected.CollapsedGroups != 0:
		verdict = fmt.Sprintf("FAIL: %d protected groups still collapsed onto one domain", protected.CollapsedGroups)
	}
	outcome := armsTable(fmt.Sprintf("Correlated failure — bare vs spread placement (%d groups, seed %d)",
		len(w.plan.Groups), env.Seed), res, verdict,
		[]string{"node casualties", "instances quarantined", "dropped queries", "recovery lifecycles (triaged)",
			"triage claims enqueued/granted", "re-spread cutovers", "groups collapsed at end"},
		func(r *chaos.Result) []any {
			return []any{r.Casualties, r.Quarantines, r.Report.SubmitErrors,
				fmt.Sprintf("%d (%d)", r.Lifecycles, r.Triaged), fmt.Sprintf("%d/%d", r.TriageEnqueued, r.TriageGranted),
				r.Respreads, r.CollapsedGroups}
		})
	return []*Table{schedule, outcome}, nil
}
