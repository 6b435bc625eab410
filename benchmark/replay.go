package main

import (
	"fmt"
	"time"

	thrifty "repro"
	"repro/internal/workload"
)

// replayEnv is the replay workload's set-up: the testbed and its plan.
type replayEnv struct {
	w    *thrifty.Workload
	plan *thrifty.Plan
}

func setupReplay(seed int64, sc scale) (*replayEnv, error) {
	w, plan, err := planned(seed, sc)
	if err != nil {
		return nil, err
	}
	if _, err := deploy(w, plan); err != nil {
		return nil, err
	}
	return &replayEnv{w: w, plan: plan}, nil
}

// replayPass is one whole-window replay on a fresh deployment.
type replayPass struct {
	wall                    time.Duration
	submitted, submitErrors int
	completed               int
	attainment              float64
	digest                  uint64
	steps                   uint64
	routed, overflowed      int64
	spansDropped            uint64
	mem                     memDelta
}

func (e *replayEnv) pass(id int, tr *tracer) (replayPass, error) {
	var p replayPass
	sys, err := deploy(e.w, e.plan)
	if err != nil {
		return p, err
	}
	before := memNow()
	sp := tr.begin("replay.Replay", -1, id, -1)
	start := time.Now()
	rep, err := sys.Replay(thrifty.ReplayOptions{From: 0, To: e.w.Horizon})
	p.wall = time.Since(start)
	tr.end(sp)
	p.mem = memSince(before)
	if err != nil {
		return p, err
	}
	p.submitted, p.submitErrors = rep.Submitted, rep.SubmitErrors
	p.completed, p.attainment, p.digest = summarize(rep.Records)
	p.steps = sys.Engine.Steps()
	for _, g := range sys.Deployment.Groups() {
		p.routed += g.Router.Routed()
		p.overflowed += g.Router.Overflowed()
	}
	p.spansDropped = sys.Telemetry().Tracer.Dropped()
	return p, nil
}

func runReplay(cfg runConfig) (*result, error) {
	env, setupS, err := timedSetup(func() (*replayEnv, error) { return setupReplay(cfg.seed, cfg.sc) })
	if err != nil {
		return nil, err
	}
	res := newResult()
	ref, plain, traced, err := passes(cfg, env.pass)
	if err != nil {
		return nil, err
	}
	res.passes = len(plain) + len(traced)
	res.passSeconds = each(plain, func(p replayPass) float64 { return p.wall.Seconds() })

	for i, p := range append(append([]replayPass{ref}, plain...), traced...) {
		res.attempted += int64(p.submitted)
		res.failed += int64(p.submitErrors)
		if p.submitted-p.submitErrors > p.completed {
			res.failed += int64(p.submitted - p.submitErrors - p.completed)
		}
		res.check(fmt.Sprintf("pass %d: submitted = completed, no submit errors", i),
			p.submitErrors == 0 && p.submitted == p.completed && p.submitted > 0,
			"submitted %d, errors %d, completed %d", p.submitted, p.submitErrors, p.completed)
		res.check(fmt.Sprintf("pass %d: records digest repeats", i), p.digest == ref.digest && p.attainment == ref.attainment,
			"digest %x vs %x, attainment %v vs %v", p.digest, ref.digest, p.attainment, ref.attainment)
	}

	wall := func(p replayPass) float64 { return p.wall.Seconds() }
	if !cfg.traced() {
		passS := median(each(plain, wall))
		res.set("setup_s", setupS, setupRepeats)
		res.set("throughput", float64(ref.submitted)/passS, len(plain))
		res.set("latency_p50_us", passS*1e6, len(plain))
		res.set("peak_rss_mb", peakRSSMB(), 1)
		res.set("sim_quality", ref.attainment, ref.completed)
		return res, nil
	}

	// Per-layer figures. Replay is decomposed from outside: the one call that
	// materialises events, the deployment, and the runtime plane driven with
	// the same events without replay's scheduling; what is left is replay's
	// own. A faster runtime plane must show in the drive and in the pass.
	n := float64(ref.submitted)
	sp := cfg.tr.begin("workload.MaterializeAll", -1, 0, -1)
	t0 := time.Now()
	evs := workload.MaterializeAll(env.w.Logs, 0, env.w.Horizon)
	matS := time.Since(t0).Seconds()
	cfg.tr.end(sp)
	sp = cfg.tr.begin("master.Deploy", -1, 0, -1)
	t0 = time.Now()
	if _, err := deploy(env.w, env.plan); err != nil {
		return nil, err
	}
	deployS := time.Since(t0).Seconds()
	cfg.tr.end(sp)

	events := expandEvents(env.w, env.plan)
	res.check("generator expands the events replay submits", len(events) == ref.submitted && len(evs) >= len(events),
		"generator %d, MaterializeAll %d, replay submitted %d", len(events), len(evs), ref.submitted)
	classes, err := resolveClasses(env.w.Catalog, events)
	if err != nil {
		return nil, err
	}
	sp = cfg.tr.begin("runtime.SubmitBatchAt", -1, 0, -1)
	rtWall, rtDone, err := driveRuntime(env.w, env.plan, events, classes, cfg.sc.batch)
	cfg.tr.end(sp)
	if err != nil {
		return nil, err
	}
	res.check("runtime drive completes every event", rtDone == len(events), "%d of %d", rtDone, len(events))

	last := traced[len(traced)-1]
	passS, plainS := median(each(traced, wall)), median(each(plain, wall))
	res.set("trace_overhead_share", (passS-plainS)/plainS, len(traced))
	res.set("workload.events", n, 1)
	res.set("workload.materialize_s", matS, 1)
	res.set("master.deploy_s", deployS, 1)
	res.set("replay.pass_s", passS, len(traced))
	res.set("runtime.ns_per_query_batch", float64(rtWall)/n, len(events))
	res.set("replay.self_s", passS-matS-rtWall.Seconds(), len(traced))
	res.set("replay.allocs_per_query", median(each(traced, func(p replayPass) float64 { return float64(p.mem.mallocs) }))/n, len(traced))
	res.set("replay.bytes_per_query", median(each(traced, func(p replayPass) float64 { return float64(p.mem.bytes) }))/n, len(traced))
	res.set("replay.gc_pause_ms", median(each(traced, func(p replayPass) float64 { return ms(p.mem.gcPause) })), len(traced))
	res.set("sim.steps", float64(last.steps), 1)
	res.set("sim.steps_per_query", float64(last.steps)/n, 1)
	if last.routed > 0 {
		res.set("router.overflow_share", float64(last.overflowed)/float64(last.routed), int(last.routed))
	}
	res.set("telemetry.spans_dropped", float64(last.spansDropped), 1)
	if err := probeRuntimeLayers(cfg, res, env.w, env.plan, events, classes); err != nil {
		return nil, err
	}
	return res, nil
}
