package advisor

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/epoch"
	"repro/internal/grouping"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Thrifty's deployment is "static for days"; a (re)-consolidation process
// runs periodically because tenants register and de-register (§3c), and
// because elastic scaling leaves behind groups that no longer match their
// history (§5.1: "tenants in those tenant-groups will get added to a
// re-consolidation list ... together with new tenants, over-active tenants,
// and tenants in tenant-groups with de-registered tenants").
//
// Reconsolidation is deliberately incremental: groups that are unaffected —
// not flagged by the scaler, no departed members, and still satisfying the
// fuzzy-capacity constraint on fresh history — keep their exact placement,
// so their tenants' data never moves. Everyone else is pooled and re-grouped
// from scratch.

// ReconsolidationInput describes one cycle.
type ReconsolidationInput struct {
	// Previous is the currently deployed plan.
	Previous *Plan
	// Logs is the *current* tenant population with fresh activity history:
	// new tenants appear here, departed tenants do not.
	Logs []*workload.TenantLog
	// FlaggedGroups are group IDs the elastic scaler put on the
	// re-consolidation list.
	FlaggedGroups []string
}

// Group-decision reason codes: why a previous group was kept or repacked.
const (
	// ReasonUnflagged: nothing disturbed the group — it kept its placement.
	ReasonUnflagged = "unflagged"
	// ReasonFlagged: the elastic scaler put the group on the
	// re-consolidation list.
	ReasonFlagged = "flagged"
	// ReasonDepartedMember: at least one member de-registered this cycle.
	ReasonDepartedMember = "departed-member"
	// ReasonCapacityViolation: the group's fresh activity history violates
	// the fuzzy-capacity constraint (TTP < P).
	ReasonCapacityViolation = "capacity-violation"
)

// GroupDecision records the keep/repack verdict for one previous group, in
// plan order, so the cycle's report shows *why* a group was disturbed.
type GroupDecision struct {
	// Group is the previous plan's group ID.
	Group string `json:"group"`
	// Kept reports whether the group survived with its placement intact.
	Kept bool `json:"kept"`
	// Reason is one of the Reason* codes above: ReasonUnflagged for a kept
	// group, otherwise the first disturbance found (flagged, then departed
	// member, then capacity violation).
	Reason string `json:"reason"`
}

// ReconsolidationReport summarizes the cycle's churn and migration cost.
type ReconsolidationReport struct {
	// KeptGroups kept their placement; their tenants' data does not move.
	KeptGroups int `json:"kept_groups"`
	// RepackedTenants went through grouping again.
	RepackedTenants int `json:"repacked_tenants"`
	// NewTenants joined the service this cycle.
	NewTenants []string `json:"new_tenants,omitempty"`
	// Departed left the service this cycle.
	Departed []string `json:"departed,omitempty"`
	// MovedTenants ended up in a different group than before (new tenants
	// included).
	MovedTenants []string `json:"moved_tenants,omitempty"`
	// DataToMoveGB is the bulk-load volume the migration requires: each
	// moved tenant's data loaded onto its new group's R MPPDBs.
	DataToMoveGB float64 `json:"data_to_move_gb"`
	// MaxProvisionTime estimates the cycle's wall time: the slowest new
	// group's startup + parallel bulk load (groups provision concurrently).
	MaxProvisionTime time.Duration `json:"max_provision_time_ns"`
	// Decisions records the keep/repack verdict and reason for every
	// previous group, in plan order.
	Decisions []GroupDecision `json:"decisions"`
}

// Reconsolidate computes the next deployment plan from the previous one.
func (a *Advisor) Reconsolidate(in ReconsolidationInput, horizon sim.Time) (*Plan, *ReconsolidationReport, error) {
	if in.Previous == nil {
		return nil, nil, fmt.Errorf("advisor: reconsolidation without a previous plan")
	}
	grid, err := epoch.NewGrid(a.cfg.Epoch, horizon)
	if err != nil {
		return nil, nil, err
	}
	flagged := make(map[string]bool, len(in.FlaggedGroups))
	for _, g := range in.FlaggedGroups {
		flagged[g] = true
	}
	current := make(map[string]*workload.TenantLog, len(in.Logs))
	for _, tl := range in.Logs {
		current[tl.Tenant.ID] = tl
	}

	rep := &ReconsolidationReport{}
	prevGroupOf := make(map[string]string)
	prevMembers := make(map[string]bool)
	for _, g := range in.Previous.Groups {
		for _, id := range g.TenantIDs {
			prevGroupOf[id] = g.ID
			prevMembers[id] = true
			if _, here := current[id]; !here {
				rep.Departed = append(rep.Departed, id)
			}
		}
	}
	for _, e := range in.Previous.Excluded {
		prevMembers[e.TenantID] = true
		if _, here := current[e.TenantID]; !here {
			rep.Departed = append(rep.Departed, e.TenantID)
		}
	}
	for _, tl := range in.Logs {
		if !prevMembers[tl.Tenant.ID] {
			rep.NewTenants = append(rep.NewTenants, tl.Tenant.ID)
		}
	}
	sort.Strings(rep.NewTenants)
	sort.Strings(rep.Departed)

	// Decide which groups survive, GOMAXPROCS wide; the verdicts are read back
	// in plan order.
	next := &Plan{Config: a.cfg}
	prev := in.Previous.Groups
	prob := &grouping.Problem{D: grid.D, R: a.cfg.R, P: a.cfg.P}
	reasons, fresh := make([]string, len(prev)), make([]grouping.Group, len(prev))
	newSet := func() *epoch.CountSet { return epoch.NewCountSet(grid.D) }
	par.Each(0, len(prev), newSet, func(cs *epoch.CountSet, i int) {
		if flagged[prev[i].ID] {
			reasons[i] = ReasonFlagged
			return
		}
		items := make([]*grouping.Item, len(prev[i].TenantIDs))
		for k, id := range prev[i].TenantIDs {
			tl, here := current[id]
			if !here {
				reasons[i] = ReasonDepartedMember
				return
			}
			items[k] = &grouping.Item{ID: id, Nodes: tl.Tenant.Nodes, Spans: grid.Quantize(tl.Activity)}
		}
		// Fresh-history feasibility check: if the group's recent activity now
		// violates the fuzzy capacity, repack it rather than deploy a plan we
		// already know is broken.
		reasons[i] = ReasonUnflagged
		if fresh[i] = prob.Measure(cs, items); fresh[i].TTP < a.cfg.P {
			reasons[i] = ReasonCapacityViolation
		}
	})
	var repackLogs []*workload.TenantLog
	for i, g := range prev {
		keep := reasons[i] == ReasonUnflagged
		if keep {
			kept := g
			kept.TTP, kept.MaxActive = fresh[i].TTP, fresh[i].MaxActive
			next.Groups = append(next.Groups, kept)
			rep.KeptGroups++
			for _, id := range g.TenantIDs {
				next.RequestedNodes += current[id].Tenant.Nodes
			}
		} else {
			for _, id := range g.TenantIDs {
				if tl, here := current[id]; here {
					repackLogs = append(repackLogs, tl)
				}
			}
		}
		rep.Decisions = append(rep.Decisions, GroupDecision{Group: g.ID, Kept: keep, Reason: reasons[i]})
	}
	// New tenants and previously excluded tenants re-enter the pool.
	for _, tl := range in.Logs {
		if !prevMembers[tl.Tenant.ID] {
			repackLogs = append(repackLogs, tl)
		}
	}
	for _, e := range in.Previous.Excluded {
		if tl, here := current[e.TenantID]; here {
			repackLogs = append(repackLogs, tl)
		}
	}
	rep.RepackedTenants = len(repackLogs)

	// Re-plan the pool (exclusion rules apply afresh).
	sub, err := a.Plan(repackLogs, horizon)
	if err != nil {
		return nil, nil, err
	}
	next.Excluded = sub.Excluded
	next.RequestedNodes += sub.RequestedNodes
	next.Algorithm = sub.Algorithm
	if len(sub.Groups) == 0 {
		// Nobody was repacked, or everybody repacked was excluded: no solver
		// ran, so every group of the plan is still the previous solver's.
		next.Algorithm = in.Previous.Algorithm
	}
	next.SolveTime = sub.SolveTime
	for i := range sub.Groups {
		g := sub.Groups[i]
		g.ID = fmt.Sprintf("TG-R%04d", i) // new-cycle namespace; avoids collisions
		next.Groups = append(next.Groups, g)

		// Migration accounting: members whose group changed must be bulk
		// loaded onto the new group's R MPPDBs.
		var groupGB float64
		for _, id := range g.TenantIDs {
			tl := current[id]
			groupGB += tl.Tenant.DataGB
			if prevGroupOf[id] != g.ID { // always true for the new namespace
				rep.MovedTenants = append(rep.MovedTenants, id)
				rep.DataToMoveGB += tl.Tenant.DataGB * float64(a.cfg.R)
			}
		}
		rep.MaxProvisionTime = max(rep.MaxProvisionTime, cluster.ProvisionTime(g.Design.N1, groupGB, true))
	}
	sort.Strings(rep.MovedTenants)
	return next, rep, nil
}
