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

	// One storm config for every arm; an explicit empty schedule turns the
	// injection off for the baseline while keeping the replay identical.
	run := func(spread bool, sched []chaos.DomainOutage) (*chaos.DomainFailResult, error) {
		used := w.plan.NodesUsed()
		pool := cluster.NewPoolDomains(used+(used+4)/5, domains)
		// The protected posture also re-replicates a casualty's shard from
		// its surviving peers in parallel; bare keeps the classic
		// single-stream reload.
		opts := master.Options{Immediate: true, ParallelLoad: spread, NoSpread: !spread}
		eng, dep, err := w.deploy(pool, opts)
		if err != nil {
			return nil, err
		}
		cfg := chaos.DefaultDomainFailConfig()
		cfg.Seed = env.Seed
		cfg.From, cfg.To = 0, sim.Day
		// Recoveries queue behind the outage and pay Table 5.1 reloads that
		// run for hours per node on the largest groups.
		cfg.DrainSlack = 3 * 24 * time.Hour
		cfg.Schedule = sched
		return chaos.RunDomainFail(eng, dep, env.Cat, w.logs, cfg)
	}

	baseline, err := run(true, []chaos.DomainOutage{})
	if err != nil {
		return nil, err
	}
	bare, err := run(false, nil)
	if err != nil {
		return nil, err
	}
	protected, err := run(true, nil)
	if err != nil {
		return nil, err
	}

	schedule := &Table{
		Title:   fmt.Sprintf("Correlated failure — injected domain outages (%d domains, seed %d)", domains, env.Seed),
		Columns: []string{"at", "domain", "duration"},
	}
	for _, o := range bare.Schedule {
		schedule.AddRow(o.At.String(), o.Domain, o.Duration.String())
	}

	verdict := "PASS"
	if err := baseline.Verify(); err != nil {
		verdict = fmt.Sprintf("FAIL: baseline: %v", err)
	} else if err := bare.Verify(); err != nil {
		verdict = fmt.Sprintf("FAIL: bare: %v", err)
	} else if err := protected.Verify(); err != nil {
		verdict = fmt.Sprintf("FAIL: protected: %v", err)
	} else if protected.Attainment < baseline.Attainment-0.02 {
		verdict = fmt.Sprintf("FAIL: protected attainment %.4f more than 2 points below no-fault %.4f",
			protected.Attainment, baseline.Attainment)
	} else if protected.CollapsedGroups != 0 {
		verdict = fmt.Sprintf("FAIL: %d protected groups still collapsed onto one domain", protected.CollapsedGroups)
	}

	outcome := &Table{
		Title: fmt.Sprintf("Correlated failure — bare vs spread placement (%d groups, seed %d)",
			len(w.plan.Groups), env.Seed),
		Columns: []string{"metric", "no-fault", "bare", "protected"},
	}
	outcome.AddRow("per-query SLA attainment", pct(baseline.Attainment), pct(bare.Attainment), pct(protected.Attainment))
	outcome.AddRow("worst member attainment", pct(baseline.MinAttainment), pct(bare.MinAttainment), pct(protected.MinAttainment))
	outcome.AddRow("min RT-TTP", fmt.Sprintf("%.4f", baseline.MinRTTTP),
		fmt.Sprintf("%.4f", bare.MinRTTTP), fmt.Sprintf("%.4f", protected.MinRTTTP))
	outcome.AddRow("node casualties", baseline.Casualties, bare.Casualties, protected.Casualties)
	outcome.AddRow("instances quarantined", baseline.Quarantines, bare.Quarantines, protected.Quarantines)
	outcome.AddRow("dropped queries", baseline.Errors, bare.Errors, protected.Errors)
	outcome.AddRow("recovery lifecycles (triaged)",
		fmt.Sprintf("%d (%d)", baseline.Lifecycles, baseline.Triaged),
		fmt.Sprintf("%d (%d)", bare.Lifecycles, bare.Triaged),
		fmt.Sprintf("%d (%d)", protected.Lifecycles, protected.Triaged))
	outcome.AddRow("triage claims enqueued/granted",
		fmt.Sprintf("%d/%d", baseline.TriageEnqueued, baseline.TriageGranted),
		fmt.Sprintf("%d/%d", bare.TriageEnqueued, bare.TriageGranted),
		fmt.Sprintf("%d/%d", protected.TriageEnqueued, protected.TriageGranted))
	outcome.AddRow("re-spread cutovers", baseline.Respreads, bare.Respreads, protected.Respreads)
	outcome.AddRow("groups collapsed at end", baseline.CollapsedGroups, bare.CollapsedGroups, protected.CollapsedGroups)
	outcome.AddRow("pool active/expected",
		fmt.Sprintf("%d/%d", baseline.ActiveNodes, baseline.ExpectedActive),
		fmt.Sprintf("%d/%d", bare.ActiveNodes, bare.ExpectedActive),
		fmt.Sprintf("%d/%d", protected.ActiveNodes, protected.ExpectedActive))
	outcome.AddRow("verdict", "", "", verdict)
	return []*Table{schedule, outcome}, nil
}
