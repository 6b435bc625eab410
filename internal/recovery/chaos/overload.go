package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/admission"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// OverloadConfig parameterizes a noisy-tenant storm: seeded aggressors in
// the deployment's largest group submit open-loop at Factor times their
// contracted rate while every other member replays its logged traffic.
type OverloadConfig struct {
	// Seed fixes the aggressor choice and nothing else — the storm itself
	// is a deterministic function of the aggressor's contract.
	Seed int64
	// Window bounds the run; the drain defaults to 6 h.
	Window
	// Aggressors is how many members of the target group run hot
	// (default 1). Zero is the no-storm control: every member replays its
	// logged traffic, which measures the group's intrinsic attainment.
	Aggressors int
	// Factor is the over-contract multiple the aggressors submit at
	// (default 5).
	Factor float64
	// Headroom scales the contracts derived from the aggressors' logs —
	// the same factor the admission config used, so the storm is measured
	// against the enforced contract (default 2).
	Headroom float64
	// MaxStorm bounds each aggressor's storm submissions (default 2000).
	MaxStorm int
}

// DefaultOverloadConfig returns a single 5×-over-contract aggressor.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		Seed:       1,
		Aggressors: 1,
		Factor:     5,
		Headroom:   2,
		MaxStorm:   2000,
	}
}

func (c OverloadConfig) validate() error {
	if err := c.Window.validate("overload"); err != nil {
		return err
	}
	if c.Aggressors < 0 || (c.Aggressors > 0 && (c.Factor <= 1 || c.MaxStorm < 1)) {
		return fmt.Errorf("overload: Aggressors=%d Factor=%v MaxStorm=%d",
			c.Aggressors, c.Factor, c.MaxStorm)
	}
	return nil
}

// TenantOutcome is one target-group member's storm outcome.
type TenantOutcome struct {
	Tenant    string
	Aggressor bool
	// Met/Missed/Attainment are the tenant's completed-query SLA tallies.
	Met, Missed int64
	Attainment  float64
	// Admitted/Throttled/Shed are the admission controller's accounting
	// (zero when admission is off).
	Admitted, Throttled, Shed int64
}

// OverloadResult condenses a storm run.
type OverloadResult struct {
	// Group is the target group the storm hit.
	Group string
	// Aggressors are the hot tenants' IDs.
	Aggressors []string
	// AdmissionOn records whether the deployment had admission armed.
	AdmissionOn bool
	// StormSubmitted counts scheduled storm submissions; StormAdmitted
	// those that reached an MPPDB; StormThrottled the typed 429s;
	// StormShed the typed 503s; StormErrors routing failures.
	StormSubmitted, StormAdmitted, StormThrottled, StormShed, StormErrors int
	// NormalSubmitted/NormalThrottled/NormalShed tally the compliant
	// members' logged traffic the same way.
	NormalSubmitted, NormalThrottled, NormalShed int
	// Outcomes has one row per target-group member, aggressors included,
	// in group member order.
	Outcomes []TenantOutcome
	// MinCompliantAttainment is the worst completed-query SLA attainment
	// over the compliant (non-aggressor) members.
	MinCompliantAttainment float64
	// MinRTTTP is the lowest sampled RT-TTP of the target group.
	MinRTTTP float64
}

// Verify checks the overload-protection bar: every compliant member's SLA
// attainment held the guarantee, and — when admission was armed — the storm
// was actually contained (throttled or shed, with typed errors).
func (r *OverloadResult) Verify(p float64) error {
	for _, o := range r.Outcomes {
		if !o.Aggressor && o.Attainment < p {
			return fmt.Errorf("overload: compliant tenant %s attainment %.6f < %.6f",
				o.Tenant, o.Attainment, p)
		}
	}
	if r.AdmissionOn && r.StormThrottled+r.StormShed == 0 {
		return fmt.Errorf("overload: admission armed but the storm was never throttled or shed")
	}
	return nil
}

// RunOverload drives a seeded noisy-tenant storm against the deployment's
// largest group, scheduled on the coordinator engine: the aggressors submit
// open-loop at Factor times their contracted rate (the contract derived
// from their own logs, whether or not admission is armed — so baseline and
// protected runs face the identical storm) while the remaining members
// replay their logged queries. Submissions go through the group's
// admission controller when armed; typed rejections are tallied, never
// retried. Deterministic: same seed and deployment ⇒ byte-identical
// telemetry.
func RunOverload(eng *sim.Engine, dep *master.Deployment, cat *queries.Catalog,
	logs []*workload.TenantLog, cfg OverloadConfig) (*OverloadResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	groups, err := stormTarget("overload", eng, dep)
	if err != nil {
		return nil, err
	}
	if cfg.Headroom <= 0 {
		cfg.Headroom = 2
	}
	target := largest(groups)
	if cfg.Aggressors > 0 && cfg.Aggressors >= len(target.Members) {
		return nil, fmt.Errorf("overload: %d aggressors need a group larger than %d",
			cfg.Aggressors, len(target.Members))
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(len(target.Members))
	hot := make(map[string]bool, cfg.Aggressors)
	res := &OverloadResult{
		Group:       target.Plan.ID,
		AdmissionOn: target.Admission != nil,
	}
	for _, i := range perm[:cfg.Aggressors] {
		id := target.Members[i].ID
		hot[id] = true
		res.Aggressors = append(res.Aggressors, id)
	}

	// submit pushes one query of the tenant behind ref through the group's
	// admission controller (when armed) and router, tallying typed
	// rejections. Runs inside an engine callback, so the domain is already
	// held by the driver.
	submit := func(tenantID string, ref tenant.Ref, class *queries.Class, sla sim.Time, storm bool) error {
		if ac := target.Admission; ac != nil {
			if err := ac.Admit(tenantID, sla, false); err != nil {
				var ce *admission.ContractExceededError
				var se *admission.ShedError
				switch {
				case errors.As(err, &ce):
					if storm {
						res.StormThrottled++
					} else {
						res.NormalThrottled++
					}
				case errors.As(err, &se):
					if storm {
						res.StormShed++
					} else {
						res.NormalShed++
					}
				}
				return err
			}
		}
		if _, err := target.Router.SubmitRef(ref, class, sla); err != nil {
			if storm {
				res.StormErrors++
			}
			return err
		}
		if storm {
			res.StormAdmitted++
		}
		return nil
	}

	// Schedule the aggressors' storms: open-loop submissions of the
	// heaviest query in each aggressor's own log, at Factor times the
	// contract derived from that log — an open loop of long queries
	// backlogs the aggressor's instance, so overflow traffic that lands
	// there shares with the whole pile-up. The storm replaces an
	// aggressor's own traffic: only the compliant members replay.
	var compliant []*workload.TenantLog
	hotLogs := make(map[string]*workload.TenantLog, cfg.Aggressors)
	for _, tl := range memberLogs([]*master.DeployedGroup{target}, logs) {
		if hot[tl.Tenant.ID] {
			hotLogs[tl.Tenant.ID] = tl
		} else {
			compliant = append(compliant, tl)
		}
	}
	for _, id := range res.Aggressors {
		tl := hotLogs[id]
		if tl == nil {
			return nil, fmt.Errorf("overload: aggressor %s has no log", id)
		}
		var class *queries.Class
		var sla sim.Time
		for _, ref := range tl.Sessions {
			for _, ev := range ref.Log.Events {
				if ev.Duration > sla {
					cl, ok := cat.ByID(ev.ClassID)
					if !ok {
						return nil, fmt.Errorf("overload: unknown class %s", ev.ClassID)
					}
					class, sla = cl, ev.Duration
				}
			}
		}
		if class == nil {
			return nil, fmt.Errorf("overload: aggressor %s logged no queries", id)
		}
		sla = slackTarget(sla)
		ref := target.Router.Ref(id)
		contract := admission.ContractFromLog(tl, cfg.Headroom)
		interval := sim.Time(float64(sim.Second) / (cfg.Factor * contract.Rate))
		if interval < 1 {
			interval = 1
		}
		for i := 0; i < cfg.MaxStorm; i++ {
			at := cfg.From + sim.Time(i)*interval
			if at >= cfg.To {
				break
			}
			res.StormSubmitted++
			eng.Schedule(at, func(sim.Time) { _ = submit(id, ref, class, sla, true) })
		}
	}

	// The compliant members replay behind the same admission-then-router
	// path the storm takes.
	opts := cfg.options(6 * time.Hour)
	opts.Submit = func(a workload.Arrival, _ *master.DeployedGroup, ref tenant.Ref) error {
		return submit(a.Tenant, ref, a.Class, slackTarget(a.SLATarget), false)
	}
	rep, err := replay.Run(eng, dep, cat, compliant, opts)
	if err != nil {
		return nil, err
	}
	res.NormalSubmitted = rep.Submitted
	res.MinRTTTP = rep.MinRTTTP(target.Plan.ID)

	// Condense per-tenant outcomes: completed-query SLA tallies from the
	// hub, admission accounting from the controller.
	slo := sloByTenant(dep)
	adm := make(map[string]admission.TenantStat)
	if target.Admission != nil {
		for _, st := range target.Admission.TenantStats() {
			adm[st.Tenant] = st
		}
	}
	res.MinCompliantAttainment = 1
	for _, tn := range target.Members {
		o := TenantOutcome{Tenant: tn.ID, Aggressor: hot[tn.ID], Attainment: 1}
		if s, ok := slo[tn.ID]; ok {
			o.Met, o.Missed, o.Attainment = s.Met, s.Missed, s.Attainment
		}
		if st, ok := adm[tn.ID]; ok {
			o.Admitted, o.Throttled, o.Shed = st.Admitted, st.Throttled, st.Shed
		}
		if !o.Aggressor && o.Attainment < res.MinCompliantAttainment {
			res.MinCompliantAttainment = o.Attainment
		}
		res.Outcomes = append(res.Outcomes, o)
	}
	return res, nil
}
