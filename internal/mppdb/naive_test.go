package mppdb

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// The executor against a naive oracle: one instance takes a sequence of
// submits, node failures and repairs, slowdowns and waits, while the oracle re-derives every completion by stepping plain
// processor sharing from scratch — k queries each progress at speed/k, the
// one with the least work left finishes next — in float seconds, with none of
// the instance's fused scans, re-keyed completion event or nanosecond clock.

// Op kinds; an op is two bytes, kind and argument.
const (
	psSubmit = iota
	psFail
	psRepair
	psSlow
	psWait
	psKinds
)

const (
	psNodes = 4
	// psStep is the unit of a wait, off the millisecond grid so waits rarely
	// land exactly on a completion.
	psStep = 13*sim.Millisecond + 377
	// psTie is the finish-time tolerance: completions of the instance and the
	// oracle agree within it, and completions closer together than it form a
	// tie whose order is float rounding's call, not the scheduler's.
	psTie = 1e-6
)

var (
	psTenants = []struct {
		id string
		gb float64
	}{{"t0", 10.7}, {"t1", 43.1}, {"t2", 97.3}}
	psClasses = []*queries.Class{
		{ID: "A", FixedSec: 0.0731, ScanSecGB: 0.0213},
		{ID: "B", FixedSec: 0.2113, ScanSecGB: 0.0047, CoordSec: 0.0131},
		{ID: "C", FixedSec: 0.0379, SerialSec: 0.1171, ShufSecGB: 0.0093},
		{ID: "D", FixedSec: 0.5011},
	}
	psSlowdowns = []float64{1, 0.5, 0.75, 0.3, 0.9}
)

type psOp struct{ kind, arg byte }

// psDone is one completion: the query's tag and its finish time in seconds.
type psDone struct {
	tag uint64
	at  float64
}

type psJob struct {
	tag  uint64
	work float64 // seconds of dedicated-instance work left
}

// psOracle is plain processor sharing. jobs is in submission order, which
// breaks ties in the least-work-left rule.
type psOracle struct {
	now    float64
	failed int
	slow   float64
	jobs   []psJob
	done   []psDone
}

func (o *psOracle) speed() float64 {
	return float64(psNodes-o.failed) / psNodes * o.slow
}

// runTo steps the oracle to t seconds, finishing every query due by then.
func (o *psOracle) runTo(t float64) {
	for len(o.jobs) > 0 {
		next := 0
		for i, j := range o.jobs {
			if j.work < o.jobs[next].work {
				next = i
			}
		}
		at := o.now + o.jobs[next].work*float64(len(o.jobs))/o.speed()
		if at > t {
			break
		}
		w := o.jobs[next].work
		for i := range o.jobs {
			o.jobs[i].work -= w
		}
		o.now = at
		o.done = append(o.done, psDone{o.jobs[next].tag, at})
		o.jobs = slices.Delete(o.jobs, next, next+1)
	}
	if t > o.now {
		if len(o.jobs) > 0 {
			w := (t - o.now) * o.speed() / float64(len(o.jobs))
			for i := range o.jobs {
				o.jobs[i].work -= w
			}
		}
		o.now = t
	}
}

// runPS drives one instance and the oracle through ops and fails unless they
// complete the same queries in the same order at the same times.
func runPS(t *testing.T, ops []psOp) {
	t.Helper()
	eng := sim.NewEngine()
	m := New(eng, "db0", psNodes)
	refs := make([]tenant.Ref, len(psTenants))
	for i, tn := range psTenants {
		m.DeployTenant(tn.id, tn.gb)
		refs[i], _ = m.Interner().Lookup(tn.id)
	}
	type started struct{ submit, iso sim.Time }
	starts := map[uint64]started{}
	var got []psDone
	m.SetCompletionHandler(func(res Result, tag uint64) {
		if s := starts[tag]; res.Submit != s.submit || res.Isolated != s.iso {
			t.Errorf("tag %d: submit %v isolated %v, want %v %v", tag, res.Submit, res.Isolated, s.submit, s.iso)
		}
		got = append(got, psDone{tag, res.Finish.Seconds()})
	})
	o := &psOracle{slow: 1}
	var now sim.Time
	var nextTag uint64
	for _, op := range ops {
		eng.Run(now)
		o.runTo(now.Seconds())
		switch op.kind % psKinds {
		case psSubmit:
			tn := int(op.arg) % len(psTenants)
			cl := psClasses[int(op.arg)/len(psTenants)%len(psClasses)]
			iso, err := m.SubmitTagged(refs[tn], cl, nextTag)
			if err != nil {
				t.Fatal(err)
			}
			if want := sim.Duration(cl.Latency(psTenants[tn].gb, psNodes)); iso != want {
				t.Fatalf("isolated latency %v, want %v", iso, want)
			}
			starts[nextTag] = started{now, iso}
			o.jobs = append(o.jobs, psJob{nextTag, iso.Seconds()})
			nextTag++
		case psFail:
			ok := o.failed < psNodes-1
			if err := m.FailNode(); (err == nil) != ok {
				t.Fatalf("FailNode with %d failed: %v", o.failed, err)
			}
			if ok {
				o.failed++
			}
		case psRepair:
			ok := o.failed > 0
			if err := m.RepairNode(); (err == nil) != ok {
				t.Fatalf("RepairNode with %d failed: %v", o.failed, err)
			}
			if ok {
				o.failed--
			}
		case psSlow:
			f := psSlowdowns[int(op.arg)%len(psSlowdowns)]
			if err := m.SetSlowdown(f); err != nil {
				t.Fatal(err)
			}
			o.slow = f
		case psWait:
			now += sim.Time(op.arg+1) * psStep
		}
	}
	eng.RunAll()
	o.runTo(math.Inf(1))

	want := o.done
	if len(got) != len(want) {
		t.Fatalf("%d completions, oracle %d", len(got), len(want))
	}
	for i := 0; i < len(want); {
		j := i + 1
		for j < len(want) && want[j].at-want[j-1].at <= psTie {
			j++
		}
		// want[i:j] is one tie; got[i:j] must hold the same queries.
		for _, w := range want[i:j] {
			k := slices.IndexFunc(got[i:j], func(g psDone) bool { return g.tag == w.tag })
			if k < 0 {
				t.Fatalf("completion %d: oracle finishes tag %d at %.9fs, the instance tag %d at %.9fs",
					i, w.tag, w.at, got[i].tag, got[i].at)
			}
			if g := got[i+k]; math.Abs(g.at-w.at) > psTie {
				t.Fatalf("tag %d finished at %.9fs, oracle %.9fs", w.tag, g.at, w.at)
			}
		}
		i = j
	}
	if m.Busy() || m.Running() != 0 {
		t.Errorf("drained instance still runs %d queries", m.Running())
	}
	for i, ref := range refs {
		if n := m.RefRunning(ref); n != 0 {
			t.Errorf("tenant %s still has %d queries in flight", psTenants[i].id, n)
		}
	}
}

// TestInstanceMatchesNaivePS runs seeded random op sequences, biased toward
// submits and short waits so a dozen queries overlap, through runPS.
func TestInstanceMatchesNaivePS(t *testing.T) {
	weights := []int{psSubmit: 30, psFail: 5, psRepair: 5, psSlow: 5, psWait: 33}
	var kinds []byte
	for k, w := range weights {
		for range w {
			kinds = append(kinds, byte(k))
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]psOp, 300)
		for i := range ops {
			ops[i] = psOp{kinds[rng.Intn(len(kinds))], byte(rng.Intn(256))}
			if ops[i].kind == psWait {
				ops[i].arg = byte(rng.Intn(12))
			}
		}
		runPS(t, ops)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

func FuzzInstancePS(f *testing.F) {
	f.Add([]byte{psSubmit, 0, psSubmit, 4, psWait, 3, psSubmit, 7, psFail, 0, psWait, 1, psSlow, 3, psRepair, 0})
	f.Add([]byte{psSubmit, 1, psSubmit, 1, psSubmit, 1, psWait, 0, psSubmit, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*300 {
			data = data[:2*300]
		}
		ops := make([]psOp, len(data)/2)
		for i := range ops {
			ops[i] = psOp{data[2*i], data[2*i+1]}
		}
		runPS(t, ops)
	})
}
