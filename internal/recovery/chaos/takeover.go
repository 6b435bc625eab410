package chaos

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TakeOver reproduces the §7.5 intervention: "we manually took over a tenant
// at time Y and continuously submitted queries to the system on behalf of
// that tenant". The hammer submits TPC-H Q1 queries on the tenant's group
// engine while every group replays its logged traffic, against its
// logged SLO targets; the drain defaults to one day.
type TakeOver struct {
	// Tenant to take over; it must be deployed.
	Tenant string
	// Start of the continuous submission.
	Start sim.Time
	// Interval between submissions (continuous = shorter than the query
	// latency).
	Interval time.Duration
}

// takeOverClass is the query class the take-over hammers with.
const takeOverClass = "TPCH-Q1"

func (to TakeOver) arm(r *run) (*armed, error) {
	class, ok := r.cat.ByID(takeOverClass)
	if !ok {
		return nil, fmt.Errorf("takeover: the catalog has no class %s", takeOverClass)
	}
	g, ok := r.dep.GroupFor(to.Tenant)
	if !ok {
		return nil, fmt.Errorf("takeover: tenant %q not deployed", to.Tenant)
	}
	if to.Interval <= 0 {
		return nil, fmt.Errorf("takeover: interval %v", to.Interval)
	}
	res, end := r.res, r.cfg.To
	ref := g.Router.Ref(to.Tenant)
	// The interval is a floor, not an open-loop rate: a new query is only
	// submitted once the previous one finishes — the paper's tester
	// "continuously submitted queries" one after another (§7.5). An open
	// loop with an interval under the query latency would grow an unbounded
	// queue, which no real client does, and the victim's self-inflicted
	// slowdown would drown the group's numbers.
	inject := func() {
		g.Domain().Do(func(eng *sim.Engine) {
			eng.Schedule(to.Start, func(sim.Time) {
				g.Telemetry().Events.Publish(telemetry.Event{
					Type:   telemetry.EventTakeOver,
					Group:  g.Plan.ID,
					Tenant: to.Tenant,
					Detail: fmt.Sprintf("continuous %s every %v", takeOverClass, to.Interval),
				})
			})
			var hammer func(now sim.Time)
			hammer = func(now sim.Time) {
				if now >= end {
					return
				}
				if g.Router.TenantInFlight(to.Tenant) == 0 {
					res.TakeOverSubmitted++
					if _, err := g.Router.SubmitRef(ref, class, 0); err != nil {
						res.TakeOverErrors++
					}
				}
				eng.After(to.Interval, hammer)
			}
			eng.Schedule(to.Start, hammer)
		})
	}
	return &armed{every: true, drain: 24 * time.Hour, inject: inject}, nil
}

// check holds that every take-over submission reached the router.
func (TakeOver) check(r *Result, _ float64) error {
	if r.TakeOverErrors != 0 {
		return fmt.Errorf("takeover: %d of %d submissions failed", r.TakeOverErrors, r.TakeOverSubmitted)
	}
	return nil
}
