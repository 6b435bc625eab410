package replay_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/master"
	"repro/internal/recovery/chaos"
	"repro/internal/replay"
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
	// repaired counts the recovery lifecycles that completed.
	repaired int
}

func (o outcome) String() string {
	return fmt.Sprintf("{%d, %d, %d, %#x, %#x, %d, %d}",
		o.submitted, o.errors, o.records, o.recordsSum, o.samplesSum, o.steps, o.repaired)
}

func condense(rep *replay.Report, dep *master.Deployment, eng *sim.Engine) outcome {
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
	for _, ev := range rep.RecoveryEvents {
		if ev.Recovered() {
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

// disturbed replays two days under a closed-loop take-over of the victim
// and two crashes of one instance in its group, through the fault harness;
// the take-over's submissions count as submitted. The second crash lands
// while the first is reloading: the two-node instance is at its minimum, so
// it fires and fails nothing.
func disturbed(t *testing.T, w *world) outcome {
	t.Helper()
	g, victim := multiMemberGroup(t, w.dep)
	res := faultRun(t, w, chaos.Window{To: 2 * sim.Day},
		chaos.TakeOver{Tenant: victim, Start: sim.Hour, Interval: 2 * time.Second},
		chaos.Crashes{Schedule: []chaos.Crash{
			{At: 2 * sim.Hour, Group: g.Plan.ID, Instance: 0},
			{At: 3 * sim.Hour, Group: g.Plan.ID, Instance: 0},
		}})
	o := condense(res.Report, w.dep, w.eng)
	o.submitted += res.TakeOverSubmitted
	o.errors += res.TakeOverErrors
	return o
}

// TestReplayEquivalence pins fixed-seed replays to the outcomes recorded on
// the commit before arrivals were streamed (one closure and one engine event
// per logged query, all scheduled up front). The streamed source must fire
// the same submissions in the same order against every other event, on every
// group's engine: plain, and with a closed-loop take-over and node failures
// racing the arrivals. The step counts include one sampler per group. The
// disturbed case's count was 291,266 while every group's recovery controller
// polled: 13 groups × 8,640 heartbeats over the 3-day run are gone, and the
// one applied failure runs one detection beat. The schedule's second crash
// is one event that fails nothing. It named instance 1 of the R=1 victim
// group, which the fault harness rejects before anything schedules; it is a
// repeat crash of instance 0 mid-reload, which the instance refuses.
func TestReplayEquivalence(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) outcome
		want outcome
	}{
		{"parallel", func(t *testing.T) outcome {
			w := newWorld(t, 30, 3, 1)
			return run(t, w, replay.Options{From: 0, To: 2 * sim.Day})
		}, outcome{32274, 0, 32274, 0x7cfa74d8ac57e4c1, 0x978340f3996db7b9, 68305, 0}},
		{"parallel-disturbed", func(t *testing.T) outcome {
			w := newWorld(t, 30, 3, 1)
			return disturbed(t, w)
		}, outcome{58309, 0, 58309, 0xc615c4810907571d, 0x4ee5ab2e532b0036, 291266 - 13*8640 + 1, 1}},
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

func run(t *testing.T, w *world, opts replay.Options) outcome {
	t.Helper()
	rep, err := replay.Run(w.eng, w.dep, w.cat, w.logs, opts)
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
	if _, err := replay.Run(w.eng, w.dep, w.cat, w.logs, replay.Options{From: 0, To: sim.Day, DrainSlack: time.Minute}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := replay.Run(w.eng, w.dep, w.cat, w.logs, replay.Options{From: sim.Day + sim.Minute, To: 3 * sim.Day})
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
