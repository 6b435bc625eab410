// Package online is the continuous incremental re-consolidation subsystem:
// a per-deployment control loop on the sim clock that streams observed
// activity deltas into live per-tenant epoch structures, detects drift,
// joins, leaves, and shape changes, repairs the partition locally with the
// planner's own machinery (bounded transition previews, patchable
// transitions), and executes the resulting placement changes as live
// migrations costed by the Table 5.1 startup + reload model.
//
// The paper treats (re)-consolidation as an offline periodic batch (§3c,
// §5.1): the advisor plans from a full log and Install swaps whole
// deployments. This package is the production version of that loop — the
// deployment stays live while single tenants move, groups split or retire,
// and only when local repair cannot restore the fuzzy-capacity constraint
// does the loop fall back to a scoped advisor.Reconsolidate over the broken
// group.
//
// The package splits into two layers. Placer (this file) is the pure
// in-memory partition state — tenants with epoch-quantized activity
// profiles, groups with live CountSets — and the single-tenant re-plan hot
// path: BestGroup is the T_best scan of the offline solver restated for one
// tenant against all live groups, with the same key-head rejection
// (epoch.PreviewBounded) that makes the PR-5 solver scale. Controller
// (online.go) drives a Placer from the runtime: monitors feed deltas in,
// placement decisions come out as live migrations.
package online

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/epoch"
)

// feasSlack absorbs float rounding in TTP comparisons, matching the
// tolerance grouping.Verify accepts.
const feasSlack = 1e-12

// PTenant is one tenant in the live partition.
type PTenant struct {
	// ID identifies the tenant.
	ID string
	// Nodes is the tenant's requested node count.
	Nodes int
	// Spans is the tenant's effective planning profile on the grid: the
	// planned activity united with every observed delta streamed in since.
	Spans epoch.Spans
	// Group is the ID of the group the tenant is assigned to; empty while
	// unplaced.
	Group string
	// DeltaEpochs counts observed epochs that were not in the planned
	// profile — the tenant's accumulated drift.
	DeltaEpochs int64
}

// PGroup is one tenant-group of the live partition.
type PGroup struct {
	// ID identifies the group.
	ID string
	// Nodes is the group's MPPDB size (the cluster design's n₁): a tenant
	// requesting more nodes than this cannot be placed here.
	Nodes int
	// CS is the group's live active-count function.
	CS *epoch.CountSet
	// members is kept sorted for deterministic iteration.
	members []string
}

// Members returns the group's member tenant IDs, sorted.
func (g *PGroup) Members() []string {
	out := make([]string, len(g.members))
	copy(out, g.members)
	return out
}

// Size returns the number of member tenants.
func (g *PGroup) Size() int { return len(g.members) }

// Placer is the in-memory partition the online control loop maintains: the
// live counterpart of an advisor plan. All methods are single-threaded; the
// controller serializes access on the deployment's clock domain.
type Placer struct {
	// D, R, P are the LIVBPwFC instance parameters: epochs in the horizon,
	// replication factor, and the fuzzy-capacity guarantee.
	D int64
	R int
	P float64

	tenants map[string]*PTenant
	groups  map[string]*PGroup
	order   []*PGroup // creation order: the deterministic scan order
	buf     []int64   // transition scratch, reused across previews
}

// NewPlacer creates an empty partition over d epochs with threshold r and
// guarantee p.
func NewPlacer(d int64, r int, p float64) *Placer {
	return &Placer{
		D:       d,
		R:       r,
		P:       p,
		tenants: make(map[string]*PTenant),
		groups:  make(map[string]*PGroup),
	}
}

// AddGroup registers an empty group with the given MPPDB size.
func (pl *Placer) AddGroup(id string, nodes int) (*PGroup, error) {
	if _, ok := pl.groups[id]; ok {
		return nil, fmt.Errorf("online: duplicate group %s", id)
	}
	g := &PGroup{ID: id, Nodes: nodes, CS: epoch.NewCountSet(pl.D)}
	pl.groups[id] = g
	pl.order = append(pl.order, g)
	return g, nil
}

// RemoveGroup drops an empty group from the partition.
func (pl *Placer) RemoveGroup(id string) error {
	g, ok := pl.groups[id]
	if !ok {
		return fmt.Errorf("online: unknown group %s", id)
	}
	if len(g.members) > 0 {
		return fmt.Errorf("online: group %s still has %d members", id, len(g.members))
	}
	delete(pl.groups, id)
	for i, og := range pl.order {
		if og == g {
			pl.order = append(pl.order[:i:i], pl.order[i+1:]...)
			break
		}
	}
	return nil
}

// Register adds an unplaced tenant with its planning profile.
func (pl *Placer) Register(id string, nodes int, sp epoch.Spans) (*PTenant, error) {
	if _, ok := pl.tenants[id]; ok {
		return nil, fmt.Errorf("online: duplicate tenant %s", id)
	}
	t := &PTenant{ID: id, Nodes: nodes, Spans: sp}
	pl.tenants[id] = t
	return t, nil
}

// Assign commits a tenant into a group: its profile joins the group's count
// function. No feasibility check is made — callers decide via BestGroup or
// Feasible.
func (pl *Placer) Assign(tenantID, groupID string) error {
	t, ok := pl.tenants[tenantID]
	if !ok {
		return fmt.Errorf("online: unknown tenant %s", tenantID)
	}
	g, ok := pl.groups[groupID]
	if !ok {
		return fmt.Errorf("online: unknown group %s", groupID)
	}
	if t.Group != "" {
		return fmt.Errorf("online: tenant %s already in group %s", tenantID, t.Group)
	}
	g.CS.Add(t.Spans)
	t.Group = groupID
	i := sort.SearchStrings(g.members, tenantID)
	g.members = append(g.members, "")
	copy(g.members[i+1:], g.members[i:])
	g.members[i] = tenantID
	return nil
}

// Unassign withdraws a tenant from its group, removing its profile from the
// group's count function. The tenant remains registered (re-assignable).
func (pl *Placer) Unassign(tenantID string) error {
	t, ok := pl.tenants[tenantID]
	if !ok {
		return fmt.Errorf("online: unknown tenant %s", tenantID)
	}
	if t.Group == "" {
		return fmt.Errorf("online: tenant %s is unplaced", tenantID)
	}
	g := pl.groups[t.Group]
	g.CS.Remove(t.Spans)
	i := sort.SearchStrings(g.members, tenantID)
	if i < len(g.members) && g.members[i] == tenantID {
		g.members = append(g.members[:i:i], g.members[i+1:]...)
	}
	t.Group = ""
	return nil
}

// Drop deregisters a tenant entirely (departure), unassigning it first if
// needed.
func (pl *Placer) Drop(tenantID string) error {
	t, ok := pl.tenants[tenantID]
	if !ok {
		return fmt.Errorf("online: unknown tenant %s", tenantID)
	}
	if t.Group != "" {
		if err := pl.Unassign(tenantID); err != nil {
			return err
		}
	}
	delete(pl.tenants, tenantID)
	return nil
}

// Ingest streams an observed activity delta into a tenant's live profile:
// delta must be the newly observed epochs NOT already in the tenant's
// profile (Spans.Diff against it). The group's count function rises by one
// exactly on the delta, the profile grows by union, and the tenant's drift
// counter advances. Returns the tenant's group ID (empty if unplaced).
func (pl *Placer) Ingest(tenantID string, delta epoch.Spans) (string, error) {
	t, ok := pl.tenants[tenantID]
	if !ok {
		return "", fmt.Errorf("online: unknown tenant %s", tenantID)
	}
	if len(delta) == 0 {
		return t.Group, nil
	}
	if t.Group != "" {
		g := pl.groups[t.Group]
		// The delta is disjoint from the profile, so adding it alone raises
		// the count by one exactly on the new epochs — the tenant's total
		// contribution stays one per profile epoch, and a later Remove of
		// the full profile is the exact inverse.
		g.CS.Add(delta)
	}
	t.Spans = t.Spans.Union(delta)
	t.DeltaEpochs += delta.Len()
	return t.Group, nil
}

// Tenant returns the tenant's live state.
func (pl *Placer) Tenant(id string) (*PTenant, bool) {
	t, ok := pl.tenants[id]
	return t, ok
}

// Group returns the group's live state.
func (pl *Placer) Group(id string) (*PGroup, bool) {
	g, ok := pl.groups[id]
	return g, ok
}

// Groups returns the live groups in creation order.
func (pl *Placer) Groups() []*PGroup {
	out := make([]*PGroup, len(pl.order))
	copy(out, pl.order)
	return out
}

// Tenants returns the number of registered tenants.
func (pl *Placer) Tenants() int { return len(pl.tenants) }

// Feasible reports whether the group satisfies the fuzzy-capacity
// constraint: TTP at threshold R is at least P.
func (pl *Placer) Feasible(groupID string) bool {
	g, ok := pl.groups[groupID]
	if !ok {
		return false
	}
	return g.CS.TTP(pl.R) >= pl.P-feasSlack
}

// Infeasible returns the IDs of groups currently violating the constraint,
// in creation order.
func (pl *Placer) Infeasible() []string {
	var out []string
	for _, g := range pl.order {
		if g.CS.TTP(pl.R) < pl.P-feasSlack {
			out = append(out, g.ID)
		}
	}
	return out
}

// BestGroup finds the best existing group for a tenant with the given size
// and profile under the T_best rule, restricted to groups that (a) are
// large enough (group MPPDB size ≥ the tenant's request — the deployed
// cluster design is physical and cannot grow per-move), (b) stay feasible
// after the addition, and (c) are not the excluded group (the tenant's
// current home during a repair move). Candidates are compared by resulting
// maximum active count, then by the resulting top-level histogram share
// (epoch.NewHistAt), ties broken by creation order — a deterministic total
// order.
//
// The scan is the planner's bounded-preview loop: once an incumbent exists,
// a group whose current maximum already exceeds the incumbent's resulting
// maximum is skipped in O(1), and PreviewBounded walks a group's count
// function only when the tenant's overlap with the group's top count level
// does not already prove its resulting maximum worse. That keeps the
// steady-state re-plan latency far under the epoch width even at 100k
// tenants (see BENCH_online.json).
func (pl *Placer) BestGroup(nodes int, sp epoch.Spans, exclude string) (string, bool) {
	bestID := ""
	bestMax := 0
	var bestShare int64
	for _, g := range pl.order {
		if g.ID == exclude || g.Nodes < nodes {
			continue
		}
		cs := g.CS
		var tr epoch.Transition
		var km int
		var ok bool
		if bestID == "" {
			tr = cs.PreviewInto(sp, pl.buf)
			km, _ = cs.NewTopUp(tr)
			ok = true
		} else {
			if cs.MaxCount() > bestMax {
				// Adding anything only raises the maximum: proven worse.
				pl.buf = pl.buf[:0]
				continue
			}
			// Max-only bound: bestUp = MaxInt64 disables the top-level tie
			// rejection, which is only sound within one CountSet — across
			// groups the tie is decided by NewHistAt below instead.
			tr, km, _, ok = cs.PreviewBounded(sp, pl.buf, bestMax, math.MaxInt64)
		}
		pl.buf = tr.Up // recover (possibly regrown) scratch
		if !ok {
			continue // resulting max exceeds the incumbent's
		}
		if cs.NewTTP(pl.R, tr) < pl.P-feasSlack {
			continue // addition would break the group
		}
		share := cs.NewHistAt(tr, km)
		if bestID == "" || km < bestMax || (km == bestMax && share < bestShare) {
			bestID, bestMax, bestShare = g.ID, km, share
		}
	}
	return bestID, bestID != ""
}

// EvictionOrder ranks a group's members by how much their departure would
// reduce the group's over-budget epochs: previewing a member's own spans
// against the live count function yields Up[c] = epochs at current count c
// along the member's activity, and removing the member converts exactly the
// epochs at count R+1 back under the threshold. Members are returned most
// relieving first, ties broken by ID.
func (pl *Placer) EvictionOrder(groupID string) []string {
	g, ok := pl.groups[groupID]
	if !ok {
		return nil
	}
	type scored struct {
		id     string
		relief int64
	}
	ranked := make([]scored, 0, len(g.members))
	for _, id := range g.members {
		t := pl.tenants[id]
		tr := g.CS.PreviewInto(t.Spans, pl.buf)
		pl.buf = tr.Up
		var relief int64
		if pl.R+1 < len(tr.Up) {
			relief = tr.Up[pl.R+1]
		}
		ranked = append(ranked, scored{id, relief})
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].relief != ranked[j].relief {
			return ranked[i].relief > ranked[j].relief
		}
		return ranked[i].id < ranked[j].id
	})
	out := make([]string, len(ranked))
	for i, s := range ranked {
		out[i] = s.id
	}
	return out
}
