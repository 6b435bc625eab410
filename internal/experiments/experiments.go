// Package experiments regenerates every table and figure of the paper's
// evaluation (thesis chapters 1 and 7). Each experiment returns plain
// Tables so the cmd harness, the benchmarks, and EXPERIMENTS.md all render
// the same rows the paper reports.
//
// Experiments accept a Scale: Small keeps run times laptop-friendly for
// tests and benchmarks; Full reproduces the paper's parameters (Table 7.1:
// 5000 tenants, 30-day logs, 100 sessions per size class).
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/epoch"
	"repro/internal/grouping"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// Scale bounds an experiment run.
type Scale struct {
	Name string
	// Tenants is T for the default workload (Table 7.1 default: 5000).
	Tenants int
	// TenantSweep is the Fig 7.2 T axis.
	TenantSweep []int
	// Days is the composed log horizon (paper: 30).
	Days int
	// SessionsPerClass sizes the step-1 library (paper: 100).
	SessionsPerClass int
	// Sizes are the requestable node counts.
	Sizes []int
	// EpochSweep is the Fig 7.1 E axis in seconds.
	EpochSweep []float64
	// ReplayGroups bounds how many groups the SLA validation replays.
	ReplayGroups int
}

// Small is the default scale for tests and `go test -bench`.
var Small = Scale{
	Name:             "small",
	Tenants:          400,
	TenantSweep:      []int{100, 400, 800},
	Days:             7,
	SessionsPerClass: 10,
	Sizes:            []int{2, 4, 8, 16, 32},
	EpochSweep:       []float64{0.5, 1, 3, 10, 30, 90, 600, 1800},
	ReplayGroups:     3,
}

// Full reproduces the paper's Table 7.1 parameters.
var Full = Scale{
	Name:             "full",
	Tenants:          5000,
	TenantSweep:      []int{1000, 5000, 10000},
	Days:             30,
	SessionsPerClass: 100,
	Sizes:            []int{2, 4, 8, 16, 32},
	EpochSweep:       []float64{0.1, 0.5, 1, 3, 10, 30, 90, 600, 1800},
	ReplayGroups:     5,
}

// Table 7.1 defaults shared by every consolidation experiment.
const (
	DefaultTheta = 0.8
	DefaultR     = 3
	DefaultP     = 0.999
)

// DefaultEpoch is the default epoch size E. The paper defaults to 10 s for
// queries lasting tens of seconds; with our calibrated ~2–3 s queries the
// same epoch-to-query-duration ratio (and the saturation point of the
// Fig 7.1 sweep) sits at 3s. A finer grid is not free: the T_best search
// keeps its open group as one counter per epoch (4 B per epoch per solver
// worker) and walks a candidate it cannot reject on its key head epoch by
// epoch, so the search slows as E shrinks below a second.
var DefaultEpoch = 3 * sim.Second

// Env is the shared experimental environment: the query catalog and the
// step-1 session library, built once and reused by every experiment.
type Env struct {
	Scale Scale
	Seed  int64
	Cat   *queries.Catalog
	Lib   *workload.Library

	defaultLogs []*workload.TenantLog
}

// NewEnv builds the environment (collecting the session library is the
// expensive part).
func NewEnv(scale Scale, seed int64) (*Env, error) {
	cat := queries.Default()
	lib, err := workload.BuildLibrary(cat, scale.Sizes, scale.SessionsPerClass, seed)
	if err != nil {
		return nil, err
	}
	return &Env{Scale: scale, Seed: seed, Cat: cat, Lib: lib}, nil
}

// Horizon returns the composed log horizon.
func (e *Env) Horizon() sim.Time { return sim.Time(e.Scale.Days) * sim.Day }

// ComposeLogs generates a tenant population and 30-day (per scale) logs.
func (e *Env) ComposeLogs(tenants int, theta float64, v workload.HighActivityVariant) ([]*workload.TenantLog, error) {
	return workload.ComposeVariant(e.Lib, e.Cat, tenants, theta, e.Scale.Sizes, v, e.Scale.Days, e.Seed+11)
}

// DefaultLogs returns (and caches) the default-parameter logs.
func (e *Env) DefaultLogs() ([]*workload.TenantLog, error) {
	if e.defaultLogs == nil {
		logs, err := e.ComposeLogs(e.Scale.Tenants, DefaultTheta, workload.VariantDefault)
		if err != nil {
			return nil, err
		}
		e.defaultLogs = logs
	}
	return e.defaultLogs, nil
}

// Tenants extracts the tenant index from logs.
func Tenants(logs []*workload.TenantLog) map[string]*tenant.Tenant {
	out := make(map[string]*tenant.Tenant, len(logs))
	for _, tl := range logs {
		out[tl.Tenant.ID] = tl.Tenant
	}
	return out
}

// Table is a printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		case time.Duration:
			row[i] = v.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// pct formats a fraction as a percentage string.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// ConsolidationPoint is one (E, T, θ, R, P) measurement comparing both
// solvers — the unit of every Fig 7.1–7.6 sweep.
type ConsolidationPoint struct {
	Label string
	// ActiveRatio is the population's measured mean active tenant ratio.
	ActiveRatio float64
	TwoStep     SolverPoint
	FFD         SolverPoint
}

// SolverPoint is one solver's outcome.
type SolverPoint struct {
	Effectiveness float64
	MeanGroupSize float64
	Groups        int
	Elapsed       time.Duration
}

// MeasureConsolidation builds the LIVBPwFC instance from logs at epoch width
// E and solves it with both algorithms.
func MeasureConsolidation(logs []*workload.TenantLog, horizon, E sim.Time, r int, p float64, label string) (*ConsolidationPoint, error) {
	grid, err := epoch.NewGrid(E, horizon)
	if err != nil {
		return nil, err
	}
	prob := &grouping.Problem{D: grid.D, R: r, P: p}
	for _, tl := range logs {
		prob.Items = append(prob.Items, &grouping.Item{
			ID:    tl.Tenant.ID,
			Nodes: tl.Tenant.Nodes,
			Spans: grid.Quantize(tl.Activity),
		})
	}
	pt := &ConsolidationPoint{Label: label}
	ratioGrid, err := epoch.NewGrid(workload.MonitorEpoch, horizon)
	if err != nil {
		return nil, err
	}
	pt.ActiveRatio = workload.ComputeStats(logs, ratioGrid).MeanActiveRatio
	two, err := grouping.TwoStep(prob)
	if err != nil {
		return nil, err
	}
	if err := grouping.Verify(prob, two); err != nil {
		return nil, fmt.Errorf("2-step produced invalid solution: %w", err)
	}
	ffd, err := grouping.FFD(prob)
	if err != nil {
		return nil, err
	}
	if err := grouping.Verify(prob, ffd); err != nil {
		return nil, fmt.Errorf("FFD produced invalid solution: %w", err)
	}
	pt.TwoStep = SolverPoint{
		Effectiveness: two.Effectiveness(prob),
		MeanGroupSize: two.MeanGroupSize(),
		Groups:        len(two.Groups),
		Elapsed:       two.Elapsed,
	}
	pt.FFD = SolverPoint{
		Effectiveness: ffd.Effectiveness(prob),
		MeanGroupSize: ffd.MeanGroupSize(),
		Groups:        len(ffd.Groups),
		Elapsed:       ffd.Elapsed,
	}
	return pt, nil
}

// pointsToTable renders consolidation points in the three-panel layout of
// the Fig 7.x plots: effectiveness (a), mean group size (b), runtime (c).
func pointsToTable(title, axis string, pts []*ConsolidationPoint) *Table {
	t := &Table{
		Title: title,
		Columns: []string{axis, "active-ratio",
			"2step-eff", "ffd-eff", "2step-groupsz", "ffd-groupsz", "2step-time", "ffd-time"},
	}
	for _, p := range pts {
		t.AddRow(p.Label, pct(p.ActiveRatio),
			pct(p.TwoStep.Effectiveness), pct(p.FFD.Effectiveness),
			fmt.Sprintf("%.1f", p.TwoStep.MeanGroupSize), fmt.Sprintf("%.1f", p.FFD.MeanGroupSize),
			p.TwoStep.Elapsed, p.FFD.Elapsed)
	}
	return t
}

// seededRand returns a deterministic rand for auxiliary draws.
func (e *Env) seededRand(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(e.Seed ^ salt))
}

// defaultCatalog memoizes the built-in catalog for env-less experiments
// (Fig 1.1 and Table 5.1 depend only on the substrate models).
func defaultCatalog() *queries.Catalog {
	catOnce.Do(func() { catShared = queries.Default() })
	return catShared
}

var (
	catOnce   sync.Once
	catShared *queries.Catalog
)
