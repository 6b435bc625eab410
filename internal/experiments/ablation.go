package experiments

import (
	"fmt"
	"time"

	"repro/internal/epoch"
	"repro/internal/grouping"
)

// AblationSolvers dissects the two-step heuristic's advantage into its two
// ingredients on the default workload:
//
//   - size-homogeneous grouping (step 1): FFD-global drops it and pays the
//     largest-item objective for every mixed bin;
//   - activity-aware T_best selection (step 2): FFD keeps homogeneous bins
//     but packs in fixed decreasing-activity order, never examining how a
//     candidate's epochs interleave with the bin's.
//
// The exact optimum is included for a tiny subsample as a reference point.
func AblationSolvers(env *Env) (*Table, error) {
	logs, err := env.DefaultLogs()
	if err != nil {
		return nil, err
	}
	grid, err := epoch.NewGrid(DefaultEpoch, env.Horizon())
	if err != nil {
		return nil, err
	}
	prob := &grouping.Problem{D: grid.D, R: DefaultR, P: DefaultP}
	for _, tl := range logs {
		prob.Items = append(prob.Items, &grouping.Item{
			ID:    tl.Tenant.ID,
			Nodes: tl.Tenant.Nodes,
			Spans: grid.Quantize(tl.Activity),
		})
	}

	t := &Table{
		Title:   "Ablation — what the 2-step heuristic's ingredients buy",
		Columns: []string{"solver", "effectiveness", "mean group size", "time"},
	}
	type solver struct {
		name string
		run  func(*grouping.Problem) (*grouping.Solution, error)
	}
	for _, s := range []solver{
		{"2-step (size split + T_best)", grouping.TwoStep},
		{"FFD (size split only)", grouping.FFD},
		{"FFD-global (neither)", grouping.FFDGlobal},
	} {
		sol, err := s.run(prob)
		if err != nil {
			return nil, err
		}
		if err := grouping.Verify(prob, sol); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		t.AddRow(s.name, pct(sol.Effectiveness(prob)),
			fmt.Sprintf("%.1f", sol.MeanGroupSize()), sol.Elapsed.Round(time.Millisecond))
	}

	// Optimal reference on the first ExactLimit items of the largest size
	// class (exact search explodes beyond that — the paper's DIRECT run
	// took 12 days for 20 tenants).
	bySize := map[int][]*grouping.Item{}
	for _, it := range prob.Items {
		bySize[it.Nodes] = append(bySize[it.Nodes], it)
	}
	var biggest []*grouping.Item
	for _, items := range bySize {
		if len(items) > len(biggest) {
			biggest = items
		}
	}
	if len(biggest) > grouping.ExactLimit {
		biggest = biggest[:grouping.ExactLimit]
	}
	sub := &grouping.Problem{D: prob.D, R: prob.R, P: prob.P, Items: biggest}
	for _, s := range []solver{
		{fmt.Sprintf("exact (first %d same-size tenants)", len(biggest)), grouping.Exact},
		{"2-step on the same subsample", grouping.TwoStep},
	} {
		sol, err := s.run(sub)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.name, pct(sol.Effectiveness(sub)),
			fmt.Sprintf("%.1f", sol.MeanGroupSize()), sol.Elapsed.Round(time.Millisecond))
	}
	return t, nil
}
