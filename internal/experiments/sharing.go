package experiments

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/replay"
	"repro/internal/sim"
)

// sharingArm is one arm's replay outcome.
type sharingArm struct {
	rep     *replay.Report
	batches uint64
	joins   uint64
	digest  uint64
	minRT   float64
}

// recordsDigest folds every completed query record into one FNV-1a word so
// two same-seed runs can be compared byte-for-byte without persisting traces.
func recordsDigest(recs []monitor.QueryRecord) uint64 {
	h := fnv.New64a()
	for _, r := range recs {
		fmt.Fprintf(h, "%s|%s|%d|%d|%d|%s\n",
			r.Tenant, r.Class.ID, int64(r.Submit), int64(r.Finish), int64(r.SLATarget), r.MPPDB)
	}
	return h.Sum64()
}

// SharingResult is the shared-work experiment's outcome: the two plans and
// the two full-deployment replays (plus the shared arm's determinism
// re-run), exposed numerically so the committed benchmark can enforce the
// same bars the experiment table prints.
type SharingResult struct {
	BarePlan   *advisor.Plan
	SharedPlan *advisor.Plan

	BareQueries, SharedQueries       int
	BareAttainment, SharedAttainment float64
	BareMinRT, SharedMinRT           float64
	Batches, Joins                   uint64

	// Digests of the completion traces; SharedDigest2 is the same-seed
	// re-run of the shared arm.
	BareDigest, SharedDigest, SharedDigest2 uint64
}

// ConsolidationRatio is bare nodes over shared nodes (>1 when sharing packs
// denser).
func (r *SharingResult) ConsolidationRatio() float64 {
	return float64(r.BarePlan.NodesUsed()) / float64(r.SharedPlan.NodesUsed())
}

// Deterministic reports whether the shared arm's same-seed re-run
// reproduced the identical completion trace.
func (r *SharingResult) Deterministic() bool { return r.SharedDigest == r.SharedDigest2 }

// Verdict applies the perf_opt acceptance bar: the sharing plan must use
// strictly fewer nodes, per-query SLA attainment must stay within a point
// of the bare arm, the same-seed re-run must reproduce byte-for-byte, and
// the executor must actually have merged work.
func (r *SharingResult) Verdict() string {
	switch {
	case r.SharedPlan.NodesUsed() >= r.BarePlan.NodesUsed():
		return fmt.Sprintf("FAIL: sharing packs %d nodes, not strictly fewer than bare %d",
			r.SharedPlan.NodesUsed(), r.BarePlan.NodesUsed())
	case r.SharedAttainment < r.BareAttainment-0.01:
		return fmt.Sprintf("FAIL: shared attainment %.4f more than 1%% below bare %.4f",
			r.SharedAttainment, r.BareAttainment)
	case !r.Deterministic():
		return fmt.Sprintf("FAIL: same-seed shared re-run diverged (digest %016x vs %016x)",
			r.SharedDigest, r.SharedDigest2)
	case r.Batches == 0:
		return "FAIL: shared arm merged no batches — the executor never engaged"
	}
	return "PASS"
}

// runSharingArm replays one arm's ENTIRE deployment for a day on a fresh
// engine. Both arms then serve the identical tenant population and query
// stream, so attainment is directly comparable: the sharing arm must defend
// its denser packing with the shared executor actually running. (Replaying
// only each plan's largest groups would bias the sample — the denser plan's
// top groups carry more load by construction.)
func runSharingArm(env *Env, p *advisor.Plan, sharing bool) (*sharingArm, error) {
	logs, err := env.DefaultLogs()
	if err != nil {
		return nil, err
	}
	eng, dep, err := subWorld{p, logs}.deploy(cluster.NewPool(p.NodesUsed()+8), master.Options{Immediate: true, Sharing: sharing})
	if err != nil {
		return nil, err
	}
	rep, err := replay.Run(eng, dep, env.Cat, logs, replay.Options{
		From:        0,
		To:          sim.Day,
		SampleEvery: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	arm := &sharingArm{rep: rep, digest: recordsDigest(rep.Records), minRT: rep.WorstRTTTP()}
	for _, g := range dep.Groups() {
		for _, inst := range g.Instances {
			b, j := inst.SharedStats()
			arm.batches += b
			arm.joins += j
		}
	}
	return arm, nil
}

// SharingOutcome plans and replays both arms of the shared-work experiment:
// the same seeded tenant population is planned and replayed once bare
// (every resident query is an independent processor-sharing participant)
// and once with shared-work execution (concurrent same-class queries merge
// into one weighted shared scan and the advisor packs for the credited
// capacity), plus a same-seed re-run of the shared arm as the determinism
// guard.
func SharingOutcome(env *Env) (*SharingResult, error) {
	logs, err := env.DefaultLogs()
	if err != nil {
		return nil, err
	}
	plan := func(sharing bool) (*advisor.Plan, error) {
		cfg := advisor.DefaultConfig()
		cfg.Sharing = sharing
		adv, err := advisor.New(cfg)
		if err != nil {
			return nil, err
		}
		return adv.Plan(logs, env.Horizon())
	}
	plainPlan, err := plan(false)
	if err != nil {
		return nil, err
	}
	sharedPlan, err := plan(true)
	if err != nil {
		return nil, err
	}

	bare, err := runSharingArm(env, plainPlan, false)
	if err != nil {
		return nil, err
	}
	shared, err := runSharingArm(env, sharedPlan, true)
	if err != nil {
		return nil, err
	}
	// Same seed, fresh engine: the shared arm must reproduce byte-for-byte.
	shared2, err := runSharingArm(env, sharedPlan, true)
	if err != nil {
		return nil, err
	}
	return &SharingResult{
		BarePlan:         plainPlan,
		SharedPlan:       sharedPlan,
		BareQueries:      len(bare.rep.Records),
		SharedQueries:    len(shared.rep.Records),
		BareAttainment:   bare.rep.SLAAttainment(),
		SharedAttainment: shared.rep.SLAAttainment(),
		BareMinRT:        bare.minRT,
		SharedMinRT:      shared.minRT,
		Batches:          shared.batches,
		Joins:            shared.joins,
		BareDigest:       bare.digest,
		SharedDigest:     shared.digest,
		SharedDigest2:    shared2.digest,
	}, nil
}

// Sharing is the shared-work execution experiment: consolidation and replay
// outcome of SharingOutcome rendered as the two result tables.
func Sharing(env *Env) ([]*Table, error) {
	logs, err := env.DefaultLogs()
	if err != nil {
		return nil, err
	}
	res, err := SharingOutcome(env)
	if err != nil {
		return nil, err
	}
	bareP, sharedP := res.BarePlan, res.SharedPlan

	consolidation := &Table{
		Title: fmt.Sprintf("Shared-work execution — consolidation (%d tenants, R=%d, P=%.1f%%, seed %d)",
			len(logs), bareP.Config.R, 100*bareP.Config.P, env.Seed),
		Columns: []string{"metric", "bare", "shared"},
	}
	consolidation.AddRow("requested nodes", bareP.RequestedNodes, sharedP.RequestedNodes)
	consolidation.AddRow("nodes used", bareP.NodesUsed(), sharedP.NodesUsed())
	consolidation.AddRow("consolidation effectiveness", pct(bareP.Effectiveness()), pct(sharedP.Effectiveness()))
	consolidation.AddRow("tenant-groups", len(bareP.Groups), len(sharedP.Groups))
	consolidation.AddRow("mean group size",
		fmt.Sprintf("%.1f", bareP.MeanGroupSize()), fmt.Sprintf("%.1f", sharedP.MeanGroupSize()))
	consolidation.AddRow("credited (Plan.Shared)", bareP.Shared, sharedP.Shared)
	consolidation.AddRow("consolidation ratio (bare/shared nodes)", "1.00",
		fmt.Sprintf("%.2f", res.ConsolidationRatio()))

	outcome := &Table{
		Title: fmt.Sprintf("Shared-work execution — one-day full-deployment replay (%d vs %d groups)",
			len(bareP.Groups), len(sharedP.Groups)),
		Columns: []string{"metric", "bare", "shared"},
	}
	outcome.AddRow("queries completed", res.BareQueries, res.SharedQueries)
	outcome.AddRow("per-query SLA attainment", pct(res.BareAttainment), pct(res.SharedAttainment))
	outcome.AddRow("min RT-TTP", fmt.Sprintf("%.4f", res.BareMinRT), fmt.Sprintf("%.4f", res.SharedMinRT))
	outcome.AddRow("shared batches (multi-member)", 0, res.Batches)
	outcome.AddRow("shared joins (attached members)", 0, res.Joins)
	outcome.AddRow("trace digest", fmt.Sprintf("%016x", res.BareDigest),
		fmt.Sprintf("%016x (re-run %016x)", res.SharedDigest, res.SharedDigest2))
	outcome.AddRow("verdict", "", res.Verdict())
	return []*Table{consolidation, outcome}, nil
}
