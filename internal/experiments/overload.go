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
// own logs, brownout controller). The first run shows how one
// over-contract tenant burns its co-tenants' guarantee through
// processor-sharing contention; the second shows the aggressor being
// throttled with typed 429s while every contract-abiding tenant's
// attainment holds.
func OverloadStorm(env *Env) ([]*Table, error) {
	logs, plan, err := planDefault(env, advisor.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// The storm targets one group; deploy only the largest so the replay
	// stays bounded.
	w := carve(plan, logs, top(rank(plan, largestFirst(plan)), 1))

	// Three runs over the identical replay of the advisor's whole horizon
	// (the RT-TTP guarantee holds over that window, so any sub-window — one
	// busy day — can dip below P even without a storm): a no-storm control
	// fixing each tenant's intrinsic attainment, the storm bare, and the
	// storm with admission armed.
	arm := func(aggressors int, admit bool) faultArm {
		opts := master.Options{Immediate: true, MonitorWindow: time.Hour}
		if admit {
			acfg := admission.DefaultConfig()
			acfg.Contracts = admission.ContractsFromLogs(w.logs)
			opts.Admission = &acfg
		}
		return faultArm{cluster.NewPool(w.plan.NodesUsed()), opts, chaos.Storm{Aggressors: aggressors}}
	}
	res, err := runArms(env, w, chaos.Window{To: env.Horizon()}, arm(0, false), arm(1, false), arm(1, true))
	if err != nil {
		return nil, err
	}
	ctl, base, prot := res[0], res[1], res[2]

	// Every arm's outcomes are the group's members, in member order.
	p := plan.Config.P
	outcomes := &Table{
		Title: fmt.Sprintf("Overload storm — per-tenant outcome (group %s, seed %d, 5× over contract)",
			prot.Group, env.Seed),
		Columns: []string{"tenant", "aggressor", "control", "bare", "admission", "admitted", "throttled", "shed"},
	}
	for i, o := range prot.Outcomes {
		outcomes.AddRow(o.Tenant, fmt.Sprint(o.Aggressor), pct(ctl.Outcomes[i].Attainment),
			pct(base.Outcomes[i].Attainment), pct(o.Attainment), o.Admitted, o.Throttled, o.Shed)
	}

	// Verdicts are measured against each tenant's no-storm control: the bare
	// storm must drag some compliant tenant below both its intrinsic
	// attainment and P, and the armed run must hold every compliant tenant at
	// its intrinsic floor (or P, whichever is lower). burned returns the
	// first compliant member below that floor, or -1.
	burned := func(r *chaos.Result) int {
		for i, o := range r.Outcomes {
			if !o.Aggressor && o.Attainment < min(p, ctl.Outcomes[i].Attainment) {
				return i
			}
		}
		return -1
	}
	baseVerdict := fmt.Sprintf("storm absorbed without damage (min compliant %s)", pct(base.MinCompliantAttainment))
	if i := burned(base); i >= 0 {
		baseVerdict = fmt.Sprintf("storm burned compliant %s from %s to %s (P=%.4f)",
			base.Outcomes[i].Tenant, pct(ctl.Outcomes[i].Attainment), pct(base.Outcomes[i].Attainment), p)
	}
	protVerdict := "PASS"
	if err := prot.Verify(min(p, ctl.MinCompliantAttainment)); err != nil {
		protVerdict = fmt.Sprintf("FAIL: %v", err)
	} else if i := burned(prot); i >= 0 {
		protVerdict = fmt.Sprintf("FAIL: compliant %s at %s below its control %s",
			prot.Outcomes[i].Tenant, pct(prot.Outcomes[i].Attainment), pct(ctl.Outcomes[i].Attainment))
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
