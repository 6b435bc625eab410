package replay

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/master"
	"repro/internal/sim"
)

// outcome condenses everything a replay decides: what it submitted, every
// completed record in report order, every group's sampled timeline, and how
// many events the engines executed. Two replays with equal outcomes fired
// the same events in the same order.
type outcome struct {
	submitted, errors, records int
	recordsSum, samplesSum     uint64
	steps                      uint64
	// repaired counts injected failures the recovery controllers restored.
	repaired int
}

func (o outcome) String() string {
	return fmt.Sprintf("{%d, %d, %d, %#x, %#x, %d, %d}",
		o.submitted, o.errors, o.records, o.recordsSum, o.samplesSum, o.steps, o.repaired)
}

func condense(rep *Report, dep *master.Deployment, eng *sim.Engine) outcome {
	o := outcome{submitted: rep.Submitted, errors: rep.SubmitErrors, records: len(rep.Records)}
	h := fnv.New64a()
	for _, r := range rep.Records {
		fmt.Fprintf(h, "%s|%s|%d|%d|%d|%s\n", r.Tenant, r.Class.ID, r.Submit, r.Finish, r.SLATarget, r.MPPDB)
	}
	o.recordsSum = h.Sum64()
	h = fnv.New64a()
	ids := make([]string, 0, len(rep.Samples))
	for id := range rep.Samples {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, s := range rep.Samples[id] {
			fmt.Fprintf(h, "%s|%d|%x|%d\n", id, s.At, math.Float64bits(s.RTTTP), s.Active)
		}
	}
	o.samplesSum = h.Sum64()
	for _, f := range rep.FailureEvents {
		if f.RepairedAt > 0 {
			o.repaired++
		}
	}
	o.steps = eng.Steps()
	for _, g := range dep.Groups() {
		g.Domain().Do(func(e *sim.Engine) { o.steps += e.Steps() })
	}
	return o
}

// multiMemberGroup returns the first group with at least two members and its
// first member: a take-over victim that has groupmates to hurt.
func multiMemberGroup(t *testing.T, dep *master.Deployment) (*master.DeployedGroup, string) {
	t.Helper()
	for _, g := range dep.Groups() {
		if len(g.Plan.TenantIDs) >= 2 {
			return g, g.Plan.TenantIDs[0]
		}
	}
	t.Fatal("no multi-member group in the plan")
	return nil, ""
}

func disturbed(g *master.DeployedGroup, victim string) Options {
	return Options{
		From: 0,
		To:   2 * sim.Day,
		TakeOver: &TakeOver{
			Tenant:   victim,
			Start:    sim.Hour,
			Interval: 2 * time.Second,
			ClassID:  "TPCH-Q1",
		},
		Failures: []Failure{
			{At: 2 * sim.Hour, Group: g.Plan.ID, Instance: 0},
			{At: 30 * sim.Hour, Group: g.Plan.ID, Instance: 1},
		},
	}
}

// TestReplayEquivalence pins fixed-seed replays to the outcomes recorded on
// the commit before arrivals were streamed (one closure and one engine event
// per logged query, all scheduled up front). The streamed source must fire
// the same submissions in the same order against every other event, on every
// group's engine: plain, and with a closed-loop take-over and node failures
// racing the arrivals. The step counts include one sampler per group.
func TestReplayEquivalence(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) outcome
		want outcome
	}{
		{"parallel", func(t *testing.T) outcome {
			w := newWorld(t, 30, 3, 1)
			return run(t, w, Options{From: 0, To: 2 * sim.Day})
		}, outcome{32274, 0, 32274, 0x7cfa74d8ac57e4c1, 0x978340f3996db7b9, 68305, 0}},
		{"parallel-disturbed", func(t *testing.T) outcome {
			w := newWorld(t, 30, 3, 1)
			return run(t, w, disturbed(multiMemberGroup(t, w.dep)))
		}, outcome{58309, 0, 58309, 0xc615c4810907571d, 0x4ee5ab2e532b0036, 291266, 1}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t); got != c.want {
				t.Errorf("replay outcome drifted from the pre-streaming commit:\n got  %v\n want %v", got, c.want)
			}
		})
	}
}

func run(t *testing.T, w *world, opts Options) outcome {
	t.Helper()
	rep, err := Run(w.eng, w.dep, w.cat, w.logs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return condense(rep, w.dep, w.eng)
}

// TestReplayAllocations bounds what a replay allocates per logged query once
// the engine's, instances' and router's pools are warm: the first day is the
// warm-up, the next two are measured. What is left is the record log growing by doubling and the
// periodic samples; one closure and one engine event per query, as before
// arrivals were streamed, would alone be two.
func TestReplayAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w := newWorld(t, 30, 3, 1)
	if _, err := Run(w.eng, w.dep, w.cat, w.logs, Options{From: 0, To: sim.Day, DrainSlack: time.Minute}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(w.eng, w.dep, w.cat, w.logs, Options{From: sim.Day + sim.Minute, To: 3 * sim.Day})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / float64(rep.Submitted)
	t.Logf("%d allocations for %d queries: %.3f per query", after.Mallocs-before.Mallocs, rep.Submitted, per)
	if per > 0.5 {
		t.Errorf("%.3f allocations per replayed query, want at most 0.5", per)
	}
}
