package main

import (
	"fmt"
	"slices"
	"time"

	thrifty "repro"
	"repro/internal/epoch"
	"repro/internal/grouping"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// planCycle is one planning cycle: a plan from scratch, then one
// re-consolidation with every tenth group on the re-consolidation list.
type planCycle struct {
	planWall, replanWall time.Duration
	plan, next           *thrifty.Plan
	report               *thrifty.ReconsolidationReport
	flagged              int
	mem                  memDelta

	// Decomposed pipeline, traced cycles only.
	quantize, solve, verify time.Duration
	spans                   int
	solution                *grouping.Solution
	problem                 *grouping.Problem
}

func (c *planCycle) wall() time.Duration { return c.planWall + c.replanWall }

func planOnce(w *thrifty.Workload, id int, tr *tracer) (*planCycle, error) {
	cfg := thrifty.DefaultPlanConfig()
	c := &planCycle{}
	root := tr.begin("cycle", -1, id, -1)
	before := memNow()
	sp := tr.begin("advisor.PlanDeployment", root, id, -1)
	t0 := time.Now()
	plan, err := thrifty.PlanDeployment(w, cfg)
	c.planWall = time.Since(t0)
	tr.end(sp)
	c.mem = memSince(before)
	if err != nil {
		return nil, err
	}
	flagged := flagEveryTenth(plan)
	sp = tr.begin("advisor.Reconsolidate", root, id, -1)
	t0 = time.Now()
	next, rep, err := thrifty.Reconsolidate(w, plan, cfg, flagged)
	c.replanWall = time.Since(t0)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	c.plan, c.next, c.report, c.flagged = plan, next, rep, len(flagged)
	if tr != nil {
		if err := c.decompose(w, id, tr); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// decompose runs the steps PlanDeployment runs, one span each, on the
// problem the advisor built (the tenants it did not exclude, in log order),
// so the facade's time splits into quantisation, solving, verification and
// the advisor's own remainder.
func (c *planCycle) decompose(w *thrifty.Workload, id int, tr *tracer) error {
	cfg := c.plan.Config
	grid, err := epoch.NewGrid(cfg.Epoch, w.Horizon)
	if err != nil {
		return err
	}
	excluded := make(map[string]bool, len(c.plan.Excluded))
	for _, e := range c.plan.Excluded {
		excluded[e.TenantID] = true
	}
	root := tr.begin("decomposed", -1, id, -1)
	prob := &grouping.Problem{D: grid.D, R: cfg.R, P: cfg.P}
	sp := tr.begin("epoch.Quantize", root, id, -1)
	t0 := time.Now()
	for _, tl := range w.Logs {
		if excluded[tl.Tenant.ID] {
			continue
		}
		it := &grouping.Item{ID: tl.Tenant.ID, Nodes: tl.Tenant.Nodes, Spans: grid.Quantize(tl.Activity)}
		c.spans += len(it.Spans)
		prob.Items = append(prob.Items, it)
	}
	c.quantize = time.Since(t0)
	tr.end(sp)

	sp = tr.begin("grouping.TwoStep", root, id, -1)
	t0 = time.Now()
	sol, err := grouping.TwoStep(prob)
	c.solve = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("grouping.Verify", root, id, -1)
	t0 = time.Now()
	err = grouping.Verify(prob, sol)
	c.verify = time.Since(t0)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return fmt.Errorf("decomposed plan does not verify: %w", err)
	}
	c.problem, c.solution = prob, sol
	return nil
}

// sameGroups reports whether the decomposed solution has the facade plan's
// groups, member for member.
func (c *planCycle) sameGroups() bool {
	if len(c.solution.Groups) != len(c.plan.Groups) {
		return false
	}
	for gi := range c.solution.Groups {
		var ids []string
		for _, idx := range c.solution.Groups[gi].Items {
			ids = append(ids, c.problem.Items[idx].ID)
		}
		if !slices.Equal(ids, c.plan.Groups[gi].TenantIDs) {
			return false
		}
	}
	return true
}

// planDigest identifies a plan by its groups' members and designs.
func planDigest(p *thrifty.Plan) string {
	s := fmt.Sprintf("nodes=%d excluded=%d", p.NodesUsed(), len(p.Excluded))
	for i := range p.Groups {
		g := &p.Groups[i]
		s += fmt.Sprintf("|%s:%d:%v", g.ID, g.Design.TotalNodes(), g.TenantIDs)
	}
	return s
}

func planTenants(p *thrifty.Plan) int {
	n := len(p.Excluded)
	for i := range p.Groups {
		n += len(p.Groups[i].TenantIDs)
	}
	return n
}

// planPass is one planning cycle of every population, in order.
type planPass []*planCycle

func (p planPass) sum(f func(*planCycle) float64) float64 {
	var v float64
	for _, c := range p {
		v += f(c)
	}
	return v
}

func (p planPass) seconds() float64 {
	return p.sum(func(c *planCycle) float64 { return c.wall().Seconds() })
}

// seedStride spaces the populations' seeds: GenerateWorkload also uses the
// two seeds after the one it is given.
const seedStride = 10

// generatePopulations builds the plan workload's independent populations.
// Planning time depends on how a population happens to split into size
// classes, so one population's time moves by a tenth between seeds; the sum
// over several moves by less, and that sum is what a cycle measures.
func generatePopulations(seed int64, sc scale) ([]*thrifty.Workload, error) {
	var out []*thrifty.Workload
	for k := 0; k < sc.planPopulations; k++ {
		w, err := generate((seed*int64(sc.planPopulations)+int64(k))*seedStride, sc.planTenants, sc.days)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func runPlan(cfg runConfig) (*result, error) {
	pops, setupS, err := timedSetup(func() ([]*thrifty.Workload, error) { return generatePopulations(cfg.seed, cfg.sc) })
	if err != nil {
		return nil, err
	}
	res := newResult()
	ref, plain, traced, err := passes(cfg,
		func(id int, tr *tracer) (planPass, error) {
			var pass planPass
			for _, w := range pops {
				c, err := planOnce(w, id, tr)
				if err != nil {
					return nil, err
				}
				pass = append(pass, c)
			}
			return pass, nil
		})
	if err != nil {
		return nil, err
	}
	all := append(append([]planPass{ref}, plain...), traced...)
	res.passes = len(all) - 1
	res.passSeconds = each(plain, planPass.seconds)

	tenants, requested, used := 0, 0, 0
	for k, w := range pops {
		tenants += len(w.Logs)
		requested += ref[k].plan.RequestedNodes
		used += ref[k].plan.NodesUsed()
		refDigest, refNext := planDigest(ref[k].plan), planDigest(ref[k].next)
		for i, pass := range all {
			c := pass[k]
			res.attempted += 2 // one plan, one re-consolidation
			res.check(fmt.Sprintf("cycle %d, population %d: plan repeats and places every tenant", i, k),
				planDigest(c.plan) == refDigest && planTenants(c.plan) == len(w.Logs) && len(c.plan.Groups) > 0,
				"%d tenants placed of %d, %d nodes vs %d", planTenants(c.plan), len(w.Logs), c.plan.NodesUsed(), ref[k].plan.NodesUsed())
			res.check(fmt.Sprintf("cycle %d, population %d: re-consolidation keeps unflagged groups and places every tenant", i, k),
				planDigest(c.next) == refNext && planTenants(c.next) == len(w.Logs) &&
					c.report.KeptGroups == len(c.plan.Groups)-c.flagged,
				"%d tenants placed of %d, kept %d of %d groups with %d flagged",
				planTenants(c.next), len(w.Logs), c.report.KeptGroups, len(c.plan.Groups), c.flagged)
			if c.solution != nil {
				res.check(fmt.Sprintf("cycle %d, population %d: decomposed plan has the facade's groups", i, k), c.sameGroups(),
					"%d groups vs %d", len(c.solution.Groups), len(c.plan.Groups))
			}
		}
	}

	if !cfg.traced() {
		cycle := median(each(plain, planPass.seconds))
		res.set("setup_s", setupS, setupRepeats)
		res.set("throughput", float64(tenants)/cycle, len(plain))
		res.set("latency_p50_us", cycle*1e6, len(plain))
		res.set("peak_rss_mb", peakRSSMB(), 1)
		res.set("sim_quality", 1-float64(used)/float64(requested), len(pops))
		return res, nil
	}

	// Per-layer figures are sums over the populations, reduced over the
	// traced passes.
	med := func(f func(*planCycle) time.Duration) float64 {
		return median(each(traced, func(p planPass) float64 {
			return p.sum(func(c *planCycle) float64 { return f(c).Seconds() })
		}))
	}
	planS := med(func(c *planCycle) time.Duration { return c.planWall })
	quantS := med(func(c *planCycle) time.Duration { return c.quantize })
	solveS := med(func(c *planCycle) time.Duration { return c.solve })
	verifyS := med(func(c *planCycle) time.Duration { return c.verify })
	n := len(traced)
	plainS := median(each(plain, planPass.seconds))
	res.set("trace_overhead_share", (median(each(traced, planPass.seconds))-plainS)/plainS, n)
	res.set("advisor.plan_s", planS, n)
	res.set("advisor.replan_s", med(func(c *planCycle) time.Duration { return c.replanWall }), n)
	res.set("advisor.self_s", planS-quantS-solveS-verifyS, n)
	res.set("epoch.quantize_s", quantS, n)
	res.set("grouping.solve_s", solveS, n)
	res.set("grouping.verify_s", verifyS, n)
	var repacked, kept, spans, groups float64
	for _, c := range traced[0] {
		repacked += float64(c.report.RepackedTenants)
		kept += float64(c.report.KeptGroups)
		spans += float64(c.spans)
		groups += float64(len(c.plan.Groups))
	}
	res.set("advisor.replan_repacked", repacked, len(pops))
	res.set("advisor.replan_kept_groups", kept, len(pops))
	res.set("epoch.spans_total", spans, len(pops))
	res.set("grouping.groups", groups, len(pops))
	res.set("grouping.mean_group_size", float64(tenants)/groups, len(pops))
	res.set("plan.nodes", float64(used), len(pops))
	res.set("plan.allocs", median(each(traced, func(p planPass) float64 {
		return p.sum(func(c *planCycle) float64 { return float64(c.mem.mallocs) })
	})), n)
	res.set("plan.bytes", median(each(traced, func(p planPass) float64 {
		return p.sum(func(c *planCycle) float64 { return float64(c.mem.bytes) })
	})), n)

	// Generation of the first population, split the way GenerateWorkload
	// composes it.
	seed := cfg.seed * int64(cfg.sc.planPopulations) * seedStride
	sp := cfg.tr.begin("workload.BuildLibrary", -1, 0, -1)
	t0 := time.Now()
	lib, err := workload.BuildLibrary(pops[0].Catalog, tenant.DefaultSizes, sessionsPerClass, seed)
	res.set("workload.library_s", time.Since(t0).Seconds(), 1)
	cfg.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = cfg.tr.begin("workload.ComposeVariant", -1, 0, -1)
	t0 = time.Now()
	_, err = workload.ComposeVariant(lib, pops[0].Catalog, cfg.sc.planTenants, 0.8, tenant.DefaultSizes,
		workload.VariantDefault, cfg.sc.days, seed+1)
	res.set("workload.compose_s", time.Since(t0).Seconds(), 1)
	cfg.tr.end(sp)
	if err != nil {
		return nil, err
	}
	probeEpoch(res, traced[0][0].problem, traced[0][0].solution)
	return res, nil
}
