package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/admission"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// Storm is a seeded noisy-tenant storm: aggressors among the largest
// group's members submit open-loop, on the coordinator engine, at
// stormFactor times the contracted rate derived from their own logs —
// whether or not admission is armed, so baseline and protected runs face the
// identical storm — while the group's other members replay their logged
// traffic against slacked SLO targets. Every submission, storm and replayed,
// goes through its group's admission controller when armed and then its
// router; typed rejections are tallied, never retried. The drain defaults to
// 6 h.
type Storm struct {
	// Aggressors is how many members of the largest group run hot; the
	// run's seed picks them. Zero is the no-storm control: every member
	// replays its logged traffic, which measures the group's intrinsic
	// attainment.
	Aggressors int
}

const (
	// stormFactor is the multiple of its contract an aggressor submits at.
	// The contract is derived from the aggressor's log as admission derives
	// the contracts it enforces, so the storm is measured against the
	// enforced contract.
	stormFactor = 5
	// maxStorm bounds each aggressor's storm submissions.
	maxStorm = 2000
)

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

func (s Storm) arm(r *run) (*armed, error) {
	if r.eng == nil {
		return nil, fmt.Errorf("overload: nil engine")
	}
	target, res, cfg := r.target, r.res, r.cfg
	if s.Aggressors < 0 || s.Aggressors > 0 && s.Aggressors >= len(target.Members) {
		return nil, fmt.Errorf("overload: Aggressors=%d in a group of %d", s.Aggressors, len(target.Members))
	}
	perm := rand.New(rand.NewSource(cfg.Seed)).Perm(len(target.Members))
	hot := make(map[string]bool, s.Aggressors)
	res.AdmissionOn = target.Admission != nil
	for _, i := range perm[:s.Aggressors] {
		id := target.Members[i].ID
		hot[id] = true
		res.Aggressors = append(res.Aggressors, id)
	}

	// submit pushes one query of the tenant behind ref through g's admission
	// controller (when armed) and router, tallying typed rejections. Runs
	// inside an engine callback, so the domain is already held by the
	// driver.
	submit := func(g *master.DeployedGroup, ref tenant.Ref, class *queries.Class, sla sim.Time, storm bool) error {
		throttled, shed := &res.NormalThrottled, &res.NormalShed
		if storm {
			throttled, shed = &res.StormThrottled, &res.StormShed
		}
		if ac := g.Admission; ac != nil {
			if err := ac.AdmitRef(ref, false); err != nil {
				var ce *admission.ContractExceededError
				var se *admission.ShedError
				switch {
				case errors.As(err, &ce):
					*throttled++
				case errors.As(err, &se):
					*shed++
				}
				return err
			}
		}
		_, err := g.Router.SubmitRef(ref, class, sla)
		switch {
		case storm && err != nil:
			res.StormErrors++
		case storm:
			res.StormAdmitted++
		}
		return err
	}
	// Each aggressor's storm: open-loop submissions of the heaviest query in
	// its own log, at stormFactor times the contract derived from that log —
	// an open loop of long queries backlogs the aggressor's instance, so
	// overflow traffic that lands there shares with the whole pile-up. The
	// storm replaces the aggressor's own traffic.
	var storms []func()
	for _, id := range res.Aggressors {
		i := slices.IndexFunc(r.logs, func(tl *workload.TenantLog) bool { return tl.Tenant.ID == id })
		if i < 0 {
			return nil, fmt.Errorf("overload: aggressor %s has no log", id)
		}
		var class *queries.Class
		var sla sim.Time
		for _, ref := range r.logs[i].Sessions {
			for _, ev := range ref.Log.Events {
				if ev.Duration > sla {
					cl, ok := r.cat.ByID(ev.ClassID)
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
		contract := admission.ContractFromLog(r.logs[i], 0) // admission's own headroom
		interval := max(sim.Time(float64(sim.Second)/(stormFactor*contract.Rate)), 1)
		storms = append(storms, func() {
			for k := 0; k < maxStorm; k++ {
				at := cfg.From + sim.Time(k)*interval
				if at >= cfg.To {
					break
				}
				res.StormSubmitted++
				r.eng.Schedule(at, func(sim.Time) { _ = submit(target, ref, class, sla, true) })
			}
		})
	}
	return &armed{
		drain: 6 * time.Hour,
		// The replayed members take the same admission-then-router path
		// the storm takes.
		submit: func(a workload.Arrival, g *master.DeployedGroup, ref tenant.Ref) error {
			return submit(g, ref, a.Class, slackTarget(a.SLATarget), false)
		},
		skip: hot,
		inject: func() {
			for _, storm := range storms {
				storm()
			}
		},
		condense: func(*replay.Report) { condenseStorm(r.dep, target, hot, res) },
	}, nil
}

// condenseStorm fills the per-member outcomes: completed-query SLA tallies
// from the hub, admission accounting from the controller.
func condenseStorm(dep *master.Deployment, target *master.DeployedGroup, hot map[string]bool, res *Result) {
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
}

// check holds the overload-protection bar: every compliant member's SLA
// attainment held the guarantee, and — when admission was armed — the storm
// was actually contained (throttled or shed, with typed errors).
func (s Storm) check(r *Result, p float64) error {
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
