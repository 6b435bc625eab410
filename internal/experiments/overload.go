package experiments

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/recovery/chaos"
)

// OverloadStorm replays the same seeded noisy-tenant storm against the
// plan's largest tenant-group twice: once bare and once with per-group
// admission control armed (contract enforcement derived from the tenants'
// own logs, bounded admission queue, brownout controller). The first run
// shows how one over-contract tenant burns its co-tenants' guarantee
// through processor-sharing contention; the second shows the aggressor
// being throttled with typed 429s while every contract-abiding tenant's
// attainment holds.
func OverloadStorm(env *Env) ([]*Table, error) {
	logs, plan, err := planDefault(env, advisor.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// The storm targets one group; deploy only the largest so the replay
	// stays bounded.
	w := carve(plan, logs, top(rank(plan, largestFirst(plan)), 1))

	// Replay the advisor's whole horizon: the RT-TTP guarantee holds over
	// that window, so any sub-window (e.g. one busy day) can dip below P
	// even without a storm.
	runOne := func(aggressors int, admit bool) (*chaos.OverloadResult, error) {
		cfg := chaos.DefaultOverloadConfig()
		cfg.Seed = env.Seed
		cfg.From, cfg.To = 0, env.Horizon()
		cfg.Aggressors = aggressors
		opts := master.Options{Immediate: true, MonitorWindow: time.Hour}
		if admit {
			acfg := admission.DefaultConfig()
			acfg.Contracts = admission.ContractsFromLogs(w.logs)
			opts.Admission = &acfg
		}
		eng, dep, err := w.deploy(cluster.NewPool(w.plan.NodesUsed()), opts)
		if err != nil {
			return nil, err
		}
		return chaos.RunOverload(eng, dep, env.Cat, w.logs, cfg)
	}
	// Three runs over the identical replay: a no-storm control fixing each
	// tenant's intrinsic attainment, the storm bare, and the storm with
	// admission armed.
	ctl, err := runOne(0, false)
	if err != nil {
		return nil, err
	}
	base, err := runOne(1, false)
	if err != nil {
		return nil, err
	}
	prot, err := runOne(1, true)
	if err != nil {
		return nil, err
	}

	p := plan.Config.P
	ctlAtt := map[string]float64{}
	baseAtt := map[string]float64{}
	for _, o := range ctl.Outcomes {
		ctlAtt[o.Tenant] = o.Attainment
	}
	for _, o := range base.Outcomes {
		baseAtt[o.Tenant] = o.Attainment
	}
	outcomes := &Table{
		Title: fmt.Sprintf("Overload storm — per-tenant outcome (group %s, seed %d, 5× over contract)",
			prot.Group, env.Seed),
		Columns: []string{"tenant", "aggressor", "control", "bare", "admission", "admitted", "throttled", "shed"},
	}
	for _, o := range prot.Outcomes {
		outcomes.AddRow(o.Tenant, fmt.Sprint(o.Aggressor), pct(ctlAtt[o.Tenant]),
			pct(baseAtt[o.Tenant]), pct(o.Attainment), o.Admitted, o.Throttled, o.Shed)
	}

	// Verdicts are measured against each tenant's no-storm control: the bare
	// storm must drag some compliant tenant below both its intrinsic
	// attainment and P, and the armed run must hold every compliant tenant at
	// its intrinsic floor (or P, whichever is lower).
	baseVerdict := fmt.Sprintf("storm absorbed without damage (min compliant %s)", pct(base.MinCompliantAttainment))
	for _, o := range base.Outcomes {
		floor := min(p, ctlAtt[o.Tenant])
		if !o.Aggressor && o.Attainment < floor {
			baseVerdict = fmt.Sprintf("storm burned compliant %s from %s to %s (P=%.4f)",
				o.Tenant, pct(ctlAtt[o.Tenant]), pct(o.Attainment), p)
			break
		}
	}
	protVerdict := "PASS"
	if err := prot.Verify(min(p, ctl.MinCompliantAttainment)); err != nil {
		protVerdict = fmt.Sprintf("FAIL: %v", err)
	} else {
		for _, o := range prot.Outcomes {
			if floor := min(p, ctlAtt[o.Tenant]); !o.Aggressor && o.Attainment < floor {
				protVerdict = fmt.Sprintf("FAIL: compliant %s at %s below its control %s",
					o.Tenant, pct(o.Attainment), pct(ctlAtt[o.Tenant]))
				break
			}
		}
	}
	summary := &Table{
		Title:   fmt.Sprintf("Overload storm — control vs bare vs admission-controlled (aggressors %v)", prot.Aggressors),
		Columns: []string{"metric", "control", "bare", "admission"},
	}
	summary.AddRow("storm submitted", ctl.StormSubmitted, base.StormSubmitted, prot.StormSubmitted)
	summary.AddRow("storm admitted", ctl.StormAdmitted, base.StormAdmitted, prot.StormAdmitted)
	summary.AddRow("storm throttled (429)", ctl.StormThrottled, base.StormThrottled, prot.StormThrottled)
	summary.AddRow("storm shed (503)", ctl.StormShed, base.StormShed, prot.StormShed)
	summary.AddRow("compliant throttled", ctl.NormalThrottled, base.NormalThrottled, prot.NormalThrottled)
	summary.AddRow("compliant shed", ctl.NormalShed, base.NormalShed, prot.NormalShed)
	summary.AddRow("min compliant attainment", pct(ctl.MinCompliantAttainment), pct(base.MinCompliantAttainment), pct(prot.MinCompliantAttainment))
	summary.AddRow("min RT-TTP", fmt.Sprintf("%.4f", ctl.MinRTTTP), fmt.Sprintf("%.4f", base.MinRTTTP), fmt.Sprintf("%.4f", prot.MinRTTTP))
	summary.AddRow("bare verdict", "", baseVerdict, "")
	summary.AddRow(fmt.Sprintf("protection verdict (compliant ≥ min(P=%.4f, control))", p), "", "", protVerdict)
	return []*Table{outcomes, summary}, nil
}
