package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	thrifty "repro"
	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/sim"
)

// serveEnv is what set-up prepares for the serve workloads: the testbed, its
// plan, and the prepared write requests.
type serveEnv struct {
	sc     scale
	mixed  bool
	w      *thrifty.Workload
	plan   *thrifty.Plan
	events []event
	reqs   []request
	path   string
	// recordsTarget is the filtered records read of serve-mixed.
	recordsTarget string
	// lat is the write-latency buffer a pass fills and sorts, reused.
	lat []int32
}

// planned generates the testbed and plans it: the part of set-up the replay
// and serve workloads share.
func planned(seed int64, sc scale) (*thrifty.Workload, *thrifty.Plan, error) {
	w, err := generate(seed, sc.serveTenants, sc.days)
	if err != nil {
		return nil, nil, err
	}
	plan, err := thrifty.PlanDeployment(w, thrifty.DefaultPlanConfig())
	if err != nil {
		return nil, nil, err
	}
	if len(plan.Groups) == 0 {
		return nil, nil, fmt.Errorf("plan has no groups")
	}
	return w, plan, nil
}

func setupServe(seed int64, sc scale, mixed bool) (*serveEnv, error) {
	w, plan, err := planned(seed, sc)
	if err != nil {
		return nil, err
	}
	if _, err := deploy(w, plan); err != nil {
		return nil, err
	}
	e := &serveEnv{sc: sc, mixed: mixed, w: w, plan: plan, events: expandEvents(w, plan)}
	if len(e.events) == 0 {
		return nil, fmt.Errorf("no events in a %d-day horizon", sc.days)
	}
	if mixed {
		e.path = "/v1/submit-batch"
		e.reqs = batchRequests(e.events, sc.batch)
		e.recordsTarget = "/v1/records?tenant=" + plan.Groups[0].TenantIDs[0]
	} else {
		e.path = "/v1/queries"
		e.reqs = singleRequests(e.events)
	}
	return e, nil
}

// deploy brings the plan up the way every workload runs it: shared clock
// layout, no provisioning delay, every opt-in subsystem off.
func deploy(w *thrifty.Workload, plan *thrifty.Plan) (*thrifty.System, error) {
	return thrifty.Deploy(w, plan, thrifty.DeployOptions{Immediate: true})
}

// reads are the read timings of one serve-mixed pass, in milliseconds.
type reads struct {
	slo, metrics, groups, round, records []float64
	recordsBytes                         []float64
}

// passResult is what one pass over the event list produced.
type passResult struct {
	wall      time.Duration // the request loop, writes and reads
	writeWall time.Duration // the write requests alone
	// p50 and tail are over the pass's write requests, in nanoseconds; tail
	// is the highest percentile up to p99 with ten requests beyond it.
	p50, tail  float64
	requests   int
	queries    int // queries sent
	accepted   int // queries the service accepted
	completed  int // records after the drain
	attainment float64
	digest     uint64
	respBytes  int64
	mem        memDelta
	reads      reads
	// promMs is the registry's text encoding alone, timed after the drain on
	// traced passes: the part of GET /metrics that is telemetry's.
	promMs float64
}

// pass deploys afresh (virtual time only moves forward, so a deployment
// serves the event list once), sends every request in order, drains, and
// reads back what completed. tr, when non-nil, gets one span per request.
func (e *serveEnv) pass(id int, tr *tracer) (passResult, error) {
	var res passResult
	sys, err := deploy(e.w, e.plan)
	if err != nil {
		return res, err
	}
	h, err := sys.Handler(thrifty.ServeOptions{TimeScale: 1})
	if err != nil {
		return res, err
	}
	srv, ok := h.(*service.Server)
	if !ok {
		return res, fmt.Errorf("handler is %T, cannot inject the clock", h)
	}
	clk := newVClock()
	srv.SetClock(clk.now, clk.base)
	c := newClient(h, clk, e.path)

	wantSuffix := func(n int) []byte {
		return []byte(`"accepted":` + strconv.Itoa(n) + `,"failed":0}` + "\n")
	}
	fullSuffix := wantSuffix(e.sc.batch)
	e.lat = e.lat[:0]

	before := memNow()
	root := tr.begin("pass", -1, id, -1)
	start := time.Now()
	for i := range e.reqs {
		rq := &e.reqs[i]
		status, t0, d := c.doPost(rq.body, rq.at)
		e.lat = append(e.lat, int32(d))
		res.writeWall += d
		tr.add("service.write", root, id, i, t0, d)
		res.queries += rq.queries
		if !e.mixed {
			if status == http.StatusAccepted {
				res.accepted++
			}
			continue
		}
		suffix := fullSuffix
		if rq.queries != e.sc.batch {
			suffix = wantSuffix(rq.queries)
		}
		if status == http.StatusOK && bytes.HasSuffix(c.rw.body, suffix) {
			res.accepted += rq.queries
		}
		if (i+1)%e.sc.scrapeEvery == 0 {
			if err := scrape(c, rq.at, tr, root, id, i, &res.reads); err != nil {
				return res, err
			}
		}
		if (i+1)%e.sc.recordsEvery == 0 {
			status, t0, d := c.doGet(e.recordsTarget, rq.at)
			if status != http.StatusOK {
				return res, fmt.Errorf("GET %s: status %d", e.recordsTarget, status)
			}
			tr.add("service.records", root, id, i, t0, d)
			res.reads.records = append(res.reads.records, ms(d))
			res.reads.recordsBytes = append(res.reads.recordsBytes, float64(len(c.rw.body)))
		}
	}
	res.wall = time.Since(start)
	tr.end(root)
	res.mem = memSince(before)
	res.requests = len(e.reqs)
	res.respBytes = c.rw.bytes
	slices.Sort(e.lat)
	res.p50 = percentileSorted(e.lat, 0.5)
	res.tail = percentileSorted(e.lat, min(0.99, tailPercentile(len(e.lat))))

	// Drain: one virtual day past the window every accepted query has
	// finished; a read makes the service advance its clocks that far.
	if status, _, _ := c.doGet("/v1/groups", e.w.Horizon+sim.Day); status != http.StatusOK {
		return res, fmt.Errorf("drain read: status %d", status)
	}
	res.completed, res.attainment, res.digest = summarize(sys.Deployment.Records())
	if tr != nil {
		var prom []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if err := sys.Telemetry().Registry.WritePrometheus(io.Discard); err != nil {
				return res, err
			}
			prom = append(prom, ms(time.Since(t0)))
		}
		res.promMs = median(prom)
	}
	return res, nil
}

// scrape is one monitoring round: the three reads an operator's dashboard
// polls, timed one by one and together.
func scrape(c *client, at sim.Time, tr *tracer, root int32, pass, req int, r *reads) error {
	var round time.Duration
	for _, rd := range []struct {
		target string
		into   *[]float64
	}{{"/v1/slo", &r.slo}, {"/metrics", &r.metrics}, {"/v1/groups", &r.groups}} {
		status, t0, d := c.doGet(rd.target, at)
		if status != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", rd.target, status)
		}
		tr.add("service.read", root, pass, req, t0, d)
		*rd.into = append(*rd.into, ms(d))
		round += d
	}
	r.round = append(r.round, ms(round))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summarize counts the completed queries, the share that met their SLA, and
// an order-independent digest of the records: the wrapping sum of one hash
// per record, equal exactly when two passes completed the same multiset.
func summarize(recs []monitor.QueryRecord) (n int, attainment float64, digest uint64) {
	met := 0
	var buf []byte
	for i := range recs {
		r := &recs[i]
		if r.SLAMet() {
			met++
		}
		buf = append(buf[:0], r.Tenant...)
		buf = append(buf, 0)
		buf = append(buf, r.Class.ID...)
		buf = append(buf, 0)
		buf = append(buf, r.MPPDB...)
		buf = append(buf, 0)
		buf = strconv.AppendInt(buf, int64(r.Submit), 16)
		buf = append(buf, 0)
		buf = strconv.AppendInt(buf, int64(r.Finish), 16)
		buf = append(buf, 0)
		buf = strconv.AppendInt(buf, int64(r.SLATarget), 16)
		h := fnv.New64a()
		_, _ = h.Write(buf) // hash.Hash.Write never fails
		digest += h.Sum64()
	}
	if len(recs) == 0 {
		return 0, 1, 0
	}
	return len(recs), float64(met) / float64(len(recs)), digest
}

func runServe(cfg runConfig, mixed bool) (*result, error) {
	env, setupS, err := timedSetup(func() (*serveEnv, error) { return setupServe(cfg.seed, cfg.sc, mixed) })
	if err != nil {
		return nil, err
	}
	res := newResult()
	ref, plain, traced, err := passes(cfg, env.pass)
	if err != nil {
		return nil, err
	}
	all := append(append([]passResult{ref}, plain...), traced...)
	res.passes = len(all) - 1
	res.passSeconds = each(plain, func(p passResult) float64 { return p.wall.Seconds() })

	// Correctness: every query accepted, every accepted query completed, and
	// every pass produced the same records.
	for i, p := range all {
		res.attempted += int64(p.queries)
		res.failed += int64(p.queries - p.accepted)
		if p.accepted > p.completed {
			res.failed += int64(p.accepted - p.completed)
		}
		res.check(fmt.Sprintf("pass %d: sent = accepted = completed", i),
			p.queries == len(env.events) && p.accepted == p.queries && p.completed == p.accepted,
			"events %d, sent %d, accepted %d, completed %d", len(env.events), p.queries, p.accepted, p.completed)
		res.check(fmt.Sprintf("pass %d: records digest repeats", i), p.digest == ref.digest && p.attainment == ref.attainment,
			"digest %x vs %x, attainment %v vs %v", p.digest, ref.digest, p.attainment, ref.attainment)
	}

	reqs, queries := float64(len(env.reqs)), float64(len(env.events))
	nsPerReq := func(p passResult) float64 { return float64(p.wall) / reqs }
	if !cfg.traced() {
		n := len(plain)
		res.set("setup_s", setupS, setupRepeats)
		res.set("throughput", queries/median(each(plain, func(p passResult) float64 { return p.wall.Seconds() })), n)
		res.set("latency_p50_us", median(each(plain, func(p passResult) float64 { return p.p50 }))/1e3, n*len(env.reqs))
		res.set("peak_rss_mb", peakRSSMB(), 1)
		res.set("sim_quality", ref.attainment, ref.completed)
		return res, nil
	}

	// Per-layer figures. The service cannot be split from the runtime plane
	// from outside, so the split is by difference: the harness against a
	// handler that does nothing, the runtime plane driven without the
	// service, and the service's own share as what is left.
	classes, err := resolveClasses(env.w.Catalog, env.events)
	if err != nil {
		return nil, err
	}
	sp := cfg.tr.begin("harness", -1, 0, -1)
	harness := harnessNsPerRequest(env)
	cfg.tr.end(sp)
	size := 1
	if mixed {
		size = cfg.sc.batch
	}
	sp = cfg.tr.begin("runtime.SubmitBatchAt", -1, 0, -1)
	rtWall, rtDone, err := driveRuntime(env.w, env.plan, env.events, classes, size)
	cfg.tr.end(sp)
	if err != nil {
		return nil, err
	}
	res.check("runtime drive completes every event", rtDone == len(env.events), "%d of %d", rtDone, len(env.events))
	rtNs := float64(rtWall) / queries

	n := len(traced)
	tracedNs, plainNs := median(each(traced, nsPerReq)), median(each(plain, nsPerReq))
	res.set("trace_overhead_share", (tracedNs-plainNs)/plainNs, n)
	res.set("service.submit_tail_us", median(each(traced, func(p passResult) float64 { return p.tail }))/1e3, n*len(env.reqs))
	res.set("service.gc_pause_ms", median(each(traced, func(p passResult) float64 { return ms(p.mem.gcPause) })), n)
	allocs := median(each(traced, func(p passResult) float64 { return float64(p.mem.mallocs) }))
	if !mixed {
		res.set("harness.ns_per_request", harness, len(env.reqs))
		res.set("runtime.ns_per_query_single", rtNs, len(env.events))
		res.set("service.ns_per_request", tracedNs, n)
		res.set("service.self_ns_per_query", tracedNs-rtNs-harness, n)
		res.set("service.allocs_per_request", allocs/reqs, n)
		res.set("service.bytes_per_request", median(each(traced, func(p passResult) float64 { return float64(p.mem.bytes) }))/reqs, n)
		res.set("service.response_bytes", float64(traced[0].respBytes)/reqs, n)
		return res, nil
	}
	// serve-mixed: per query, over the write requests alone.
	writeNs := median(each(traced, func(p passResult) float64 { return float64(p.writeWall) / queries }))
	res.set("runtime.ns_per_query_batch", rtNs, len(env.events))
	res.set("service.batch_self_ns_per_query", writeNs-rtNs-harness*reqs/queries, n)
	res.set("service.batch_allocs_per_query", allocs/queries, n)
	readMs := func(name string, f func(*reads) []float64) float64 {
		samples := 0
		v := median(each(traced, func(p passResult) float64 {
			xs := f(&p.reads)
			samples += len(xs)
			return median(xs)
		}))
		res.set(name, v, samples)
		return v
	}
	readMs("service.scrape_ms", func(r *reads) []float64 { return r.round })
	readMs("service.slo_ms", func(r *reads) []float64 { return r.slo })
	metricsMs := readMs("service.metrics_ms", func(r *reads) []float64 { return r.metrics })
	readMs("service.groups_ms", func(r *reads) []float64 { return r.groups })
	readMs("service.records_ms", func(r *reads) []float64 { return r.records })
	res.set("service.records_bytes", median(traced[0].reads.recordsBytes), len(traced[0].reads.recordsBytes))
	prom := median(each(traced, func(p passResult) float64 { return p.promMs }))
	res.set("telemetry.prometheus_ms", prom, 5*n)
	res.set("service.metrics_self_ms", metricsMs-prom, n)
	return res, nil
}

// harnessNsPerRequest sends the prepared requests to a handler that does no
// work and returns the client's own cost per request.
func harnessNsPerRequest(env *serveEnv) float64 {
	c := newClient(noopHandler, newVClock(), env.path)
	var sink []int32
	start := time.Now()
	for i := range env.reqs {
		_, _, d := c.doPost(env.reqs[i].body, env.reqs[i].at)
		sink = append(sink[:0], int32(d))
	}
	return float64(time.Since(start)) / float64(len(env.reqs))
}
