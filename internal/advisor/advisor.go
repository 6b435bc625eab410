// Package advisor implements the Deployment Advisor (thesis §3b): it takes
// tenant activity statistics, per-tenant requirements, a replication factor
// R and a performance SLA guarantee P, and produces a deployment plan —
// cluster design plus tenant placement — by solving the tenant-grouping
// optimization.
//
// Tenants that offer no consolidation room are excluded up front (§3:
// "Tenants that are always active and/or with more than terabytes of data
// could be detected by Thrifty and they will be excluded from consolidation"
// — they are served by dedicated nodes under another service plan).
package advisor

import (
	"fmt"

	"repro/internal/epoch"
	"repro/internal/grouping"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/tdd"
	"repro/internal/workload"
)

// Algorithm selects the grouping solver.
type Algorithm string

const (
	// TwoStep is the paper's two-step heuristic (the default).
	TwoStep Algorithm = "2-step"
	// FFD is the First-Fit-Decreasing baseline.
	FFD Algorithm = "ffd"
)

// Config parameterizes the advisor.
type Config struct {
	// R is the replication factor (Table 7.1 default: 3).
	R int
	// P is the performance SLA guarantee (default: 0.999).
	P float64
	// Epoch is the activity quantization width (default: 3s; see
	// DESIGN.md §4b on the epoch-to-query-duration ratio).
	Epoch sim.Time
	// Algorithm selects the solver (default TwoStep).
	Algorithm Algorithm
	// MaxActiveRatio excludes always-active tenants: a tenant active more
	// than this fraction of the horizon is served on dedicated nodes.
	MaxActiveRatio float64
	// MaxDataGB excludes oversized tenants.
	MaxDataGB float64
	// BurstLookaheadDays excludes tenants whose history shows regular
	// activity bursts recurring within this many days after deployment
	// (§5.1: bursty tenants are excluded "before the bursts arrive").
	// 0 disables the check.
	BurstLookaheadDays int
	// U optionally widens every group's tuning MPPDB G₀ by this many nodes
	// beyond n₁ (§6 manual tuning). 0 keeps U = n₁.
	UExtra int
	// FailureDomains records the failure-domain count of the pool the plan
	// will deploy onto (racks/zones). The grouping itself is
	// placement-agnostic — the master's spread-aware acquisition realizes
	// domain diversity at deploy time — but a plan that knows the domain
	// count documents the R-vs-domains relationship: with R ≥ 2 replicas
	// and ≥ 2 domains, spread placement keeps every group available through
	// any single-domain outage. 0 means unknown/single-domain.
	FailureDomains int
}

// DefaultConfig returns the Table 7.1 default parameters.
func DefaultConfig() Config {
	return Config{
		R:                  3,
		P:                  0.999,
		Epoch:              3 * sim.Second,
		Algorithm:          TwoStep,
		MaxActiveRatio:     0.90,
		MaxDataGB:          10 * 1024,
		BurstLookaheadDays: 7,
	}
}

// Exclusion names a tenant left out of consolidation and why.
type Exclusion struct {
	TenantID string
	Reason   string
	// Nodes the tenant gets on its dedicated plan.
	Nodes int
}

// PlannedGroup is one tenant-group of the deployment plan.
type PlannedGroup struct {
	// ID is the group identifier, e.g. "TG-0007".
	ID string
	// TenantIDs are the member tenants.
	TenantIDs []string
	// Design is the group's cluster design (A = R MPPDBs of n₁ nodes; G₀
	// may be widened by UExtra).
	Design tdd.ClusterDesign
	// TTP and MaxActive are the grouping-time statistics.
	TTP       float64
	MaxActive int
}

// Plan is the advisor's output.
type Plan struct {
	Config Config
	Groups []PlannedGroup
	// Excluded tenants are not consolidated.
	Excluded []Exclusion
	// RequestedNodes is Σ nᵢ over consolidated tenants.
	RequestedNodes int
	// Solver diagnostics.
	Algorithm string
	SolveTime sim.Time
}

// NodesUsed returns the machine nodes the consolidated deployment consumes.
func (p *Plan) NodesUsed() int {
	n := 0
	for i := range p.Groups {
		n += p.Groups[i].Design.TotalNodes()
	}
	return n
}

// Effectiveness returns the consolidation effectiveness over the
// consolidated tenants (fraction of requested nodes saved).
func (p *Plan) Effectiveness() float64 {
	if p.RequestedNodes == 0 {
		return 0
	}
	return 1 - float64(p.NodesUsed())/float64(p.RequestedNodes)
}

// MeanGroupSize returns the average tenants per group.
func (p *Plan) MeanGroupSize() float64 {
	if len(p.Groups) == 0 {
		return 0
	}
	n := 0
	for i := range p.Groups {
		n += len(p.Groups[i].TenantIDs)
	}
	return float64(n) / float64(len(p.Groups))
}

// Group returns the planned group hosting the tenant, if any.
func (p *Plan) Group(tenantID string) (*PlannedGroup, bool) {
	for i := range p.Groups {
		for _, id := range p.Groups[i].TenantIDs {
			if id == tenantID {
				return &p.Groups[i], true
			}
		}
	}
	return nil, false
}

// Advisor computes deployment plans.
type Advisor struct {
	cfg Config
}

// New validates the configuration and returns an advisor.
func New(cfg Config) (*Advisor, error) {
	if cfg.R < 1 {
		return nil, fmt.Errorf("advisor: R=%d", cfg.R)
	}
	if cfg.P <= 0 || cfg.P > 1 {
		return nil, fmt.Errorf("advisor: P=%v", cfg.P)
	}
	if cfg.Epoch <= 0 {
		return nil, fmt.Errorf("advisor: epoch %v", cfg.Epoch)
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = TwoStep
	}
	if cfg.Algorithm != TwoStep && cfg.Algorithm != FFD {
		return nil, fmt.Errorf("advisor: unknown algorithm %q", cfg.Algorithm)
	}
	if cfg.MaxActiveRatio <= 0 {
		cfg.MaxActiveRatio = 0.90
	}
	if cfg.MaxDataGB <= 0 {
		cfg.MaxDataGB = 10 * 1024
	}
	if cfg.UExtra < 0 {
		return nil, fmt.Errorf("advisor: UExtra=%d", cfg.UExtra)
	}
	if cfg.BurstLookaheadDays < 0 {
		return nil, fmt.Errorf("advisor: BurstLookaheadDays=%d", cfg.BurstLookaheadDays)
	}
	return &Advisor{cfg: cfg}, nil
}

// Plan computes a deployment plan from the tenants' activity logs over
// [0, horizon).
func (a *Advisor) Plan(logs []*workload.TenantLog, horizon sim.Time) (*Plan, error) {
	grid, err := epoch.NewGrid(a.cfg.Epoch, horizon)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Config: a.cfg}

	// Exclusion pass, and the activity of every tenant it keeps quantized,
	// GOMAXPROCS wide; the results are read back in log order.
	reasons := make([]string, len(logs))
	spans := make([]epoch.Spans, len(logs))
	par.Each(0, len(logs), nil, func(_ any, i int) {
		if reasons[i] = a.exclusion(logs[i], horizon); reasons[i] == "" {
			spans[i] = grid.Quantize(logs[i].Activity)
		}
	})

	// Build and solve the LIVBPwFC instance.
	prob := &grouping.Problem{D: grid.D, R: a.cfg.R, P: a.cfg.P}
	for i, tl := range logs {
		if reasons[i] != "" {
			plan.Excluded = append(plan.Excluded, Exclusion{TenantID: tl.Tenant.ID, Reason: reasons[i], Nodes: tl.Tenant.Nodes})
			continue
		}
		prob.Items = append(prob.Items, &grouping.Item{
			ID:    tl.Tenant.ID,
			Nodes: tl.Tenant.Nodes,
			Spans: spans[i],
		})
		plan.RequestedNodes += tl.Tenant.Nodes
	}
	if len(prob.Items) == 0 {
		return plan, nil
	}
	var sol *grouping.Solution
	switch a.cfg.Algorithm {
	case FFD:
		sol, err = grouping.FFD(prob)
	default:
		sol, err = grouping.TwoStep(prob)
	}
	if err != nil {
		return nil, err
	}
	if err := grouping.Verify(prob, sol); err != nil {
		return nil, fmt.Errorf("advisor: solver produced an invalid plan: %w", err)
	}
	plan.Algorithm = sol.Algorithm
	plan.SolveTime = sim.Duration(sol.Elapsed)

	for gi := range sol.Groups {
		g := &sol.Groups[gi]
		design, err := tdd.NewClusterDesign(a.cfg.R, g.MaxNodes, g.MaxNodes+a.cfg.UExtra)
		if err != nil {
			return nil, err
		}
		pg := PlannedGroup{
			ID:        fmt.Sprintf("TG-%04d", gi),
			Design:    design,
			TTP:       g.TTP,
			MaxActive: g.MaxActive,
		}
		for _, idx := range g.Items {
			pg.TenantIDs = append(pg.TenantIDs, prob.Items[idx].ID)
		}
		plan.Groups = append(plan.Groups, pg)
	}
	return plan, nil
}

// exclusion returns why tl is left out of consolidation, or "" when it is
// not. Burst detection reads the whole log, so it comes last and only for
// tenants the two cheaper tests did not already exclude.
func (a *Advisor) exclusion(tl *workload.TenantLog, horizon sim.Time) string {
	if tl.Tenant.DataGB > a.cfg.MaxDataGB {
		return fmt.Sprintf("oversized: %.0f GB > %.0f GB", tl.Tenant.DataGB, a.cfg.MaxDataGB)
	}
	if ratio := tl.Activity.Ratio(horizon); ratio > a.cfg.MaxActiveRatio {
		return fmt.Sprintf("always active: %.0f%% of horizon", 100*ratio)
	}
	if a.cfg.BurstLookaheadDays > 0 {
		if burst := DetectBursts(tl.Activity, horizon); burst.PredictsBurstWithin(int(horizon/sim.Day), a.cfg.BurstLookaheadDays) {
			return fmt.Sprintf("regular bursts every ~%d days; next predicted on day %d",
				burst.PeriodDays, burst.NextBurstDay)
		}
	}
	return ""
}
