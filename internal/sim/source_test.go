package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sliceSource yields arrivals at fixed times and reports each to fire.
type sliceSource struct {
	times []Time
	next  int
	fire  func(i int, now Time)
}

func (s *sliceSource) Fire(now Time) (Time, bool) {
	i := s.next
	s.next++
	s.fire(i, now)
	if s.next == len(s.times) {
		return 0, false
	}
	return s.times[s.next], true
}

func TestAttachFiresInOrderAndCountsSteps(t *testing.T) {
	e := NewEngine()
	var got []string
	log := func(s string) func(Time) { return func(Time) { got = append(got, s) } }
	e.Schedule(2*Second, log("before@2"))
	src := &sliceSource{times: []Time{Second, 2 * Second, 2 * Second, 5 * Second}}
	src.fire = func(i int, now Time) {
		if now != src.times[i] || e.Now() != now {
			t.Errorf("arrival %d fired at %v (engine %v), want %v", i, now, e.Now(), src.times[i])
		}
		got = append(got, fmt.Sprintf("arrival%d", i))
		if i == 1 {
			// Scheduled from an arrival for the same instant: still behind
			// the source's remaining arrivals of that instant.
			e.Schedule(now, log("child@2"))
		}
	}
	e.Attach(src.times[0], src.Fire)
	e.Schedule(2*Second, log("after@2"))

	if n := e.Pending(); n != 3 {
		t.Errorf("Pending = %d, want 3 (two events and the source)", n)
	}
	if at, ok := e.NextAt(); !ok || at != Second {
		t.Errorf("NextAt = %v,%v, want the source's head at 1s", at, ok)
	}
	e.Run(2 * Second)
	want := []string{"arrival0", "before@2", "arrival1", "arrival2", "after@2", "child@2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v\n want %v", got, want)
	}
	if at, ok := e.NextAt(); !ok || at != 5*Second || e.Pending() != 1 {
		t.Errorf("after Run(2s): NextAt = %v,%v Pending = %d, want 5s and the source alone", at, ok, e.Pending())
	}
	e.RunAll()
	if e.Steps() != 7 || e.Pending() != 0 || e.Now() != 5*Second {
		t.Errorf("Steps = %d Pending = %d Now = %v, want 7, 0, 5s", e.Steps(), e.Pending(), e.Now())
	}
}

func TestAttachPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("attach in the past", func() {
		e := NewEngine()
		e.Run(Second)
		e.Attach(0, (&sliceSource{times: []Time{0}}).Fire)
	})
	mustPanic("source moving backwards", func() {
		e := NewEngine()
		e.Attach(2*Second, (&sliceSource{times: []Time{2 * Second, Second}, fire: func(int, Time) {}}).Fire)
		e.RunAll()
	})
}

// sourceScript is one random schedule for TestSourceMatchesPreScheduled: timed
// events registered before, between and after two attach points, with per-id
// behaviour (spawn a child now or later, cancel another event) fixed up front
// so it cannot depend on which engine runs it.
type sourceScript struct {
	// phases[p] are the plain events registered before attach point p; the
	// last phase follows the last attach.
	phases   [3][]scriptEvent
	arrivals [2][]Time
	cancels  []int // ids canceled right after registration
	spawn    map[int]Time
	kill     map[int]int
}

type scriptEvent struct {
	id int
	at Time
}

func newSourceScript(rng *rand.Rand) *sourceScript {
	const span = 24 // few distinct instants, so most events tie with something
	sc := &sourceScript{spawn: map[int]Time{}, kill: map[int]int{}}
	id := 0
	for p := range sc.phases {
		for n := rng.Intn(12); n > 0; n-- {
			sc.phases[p] = append(sc.phases[p], scriptEvent{id, Time(rng.Intn(span))})
			id++
		}
	}
	plain := id
	for s := range sc.arrivals {
		for n := rng.Intn(30); n > 0; n-- {
			sc.arrivals[s] = append(sc.arrivals[s], Time(rng.Intn(span)))
		}
		sort.Slice(sc.arrivals[s], func(i, j int) bool { return sc.arrivals[s][i] < sc.arrivals[s][j] })
		id += len(sc.arrivals[s])
	}
	for i := 0; i < id; i++ {
		switch rng.Intn(4) {
		case 0:
			sc.spawn[i] = Time(rng.Intn(3)) // a child 0, 1 or 2 ticks later
		case 1:
			if plain > 0 {
				sc.kill[i] = rng.Intn(plain)
			}
		}
	}
	for n := rng.Intn(4); n > 0 && plain > 0; n-- {
		sc.cancels = append(sc.cancels, rng.Intn(plain))
	}
	return sc
}

// play registers the script on a fresh engine — arrivals attached as sources,
// or pre-Scheduled one by one at the same two points — and returns the engine
// and the trace its callbacks append to.
func (sc *sourceScript) play(asSource bool) (*Engine, *[]string) {
	e := NewEngine()
	trace := &[]string{}
	handles := map[int]*Event{}
	var fired func(id int, now Time)
	fired = func(id int, now Time) {
		*trace = append(*trace, fmt.Sprintf("%d@%d", id, now))
		if d, ok := sc.spawn[id]; ok {
			child := 1000 + id
			e.Schedule(now+d, func(now Time) { fired(child, now) })
		}
		if victim, ok := sc.kill[id]; ok {
			e.Cancel(handles[victim])
		}
	}
	register := func(evs []scriptEvent) {
		for _, ev := range evs {
			ev := ev
			handles[ev.id] = e.Schedule(ev.at, func(now Time) { fired(ev.id, now) })
		}
	}
	base := len(sc.phases[0]) + len(sc.phases[1]) + len(sc.phases[2])
	for s, times := range sc.arrivals {
		register(sc.phases[s])
		first := base
		base += len(times)
		if len(times) == 0 {
			continue
		}
		if asSource {
			e.Attach(times[0], (&sliceSource{times: times, fire: func(i int, now Time) { fired(first+i, now) }}).Fire)
			continue
		}
		for i, at := range times {
			i := i
			e.Schedule(at, func(now Time) { fired(first+i, now) })
		}
	}
	register(sc.phases[2])
	for _, id := range sc.cancels {
		e.Cancel(handles[id])
	}
	return e, trace
}

// TestSourceMatchesPreScheduled is the ordering contract of Attach: a random
// schedule full of ties fires identically whether its arrivals sit in the
// engine as two attached sources or as one pre-Scheduled event each — against
// events scheduled before, between and after the attach points, from inside
// callbacks (arrival callbacks included) and canceled ones — and Steps, Now,
// NextAt and Pending agree at every stop, however the engine is driven.
func TestSourceMatchesPreScheduled(t *testing.T) {
	drivers := map[string]func(e *Engine, until Time){
		"Run": func(e *Engine, until Time) { e.Run(until) },
		"Step": func(e *Engine, until Time) {
			for at, ok := e.NextAt(); ok && at <= until; at, ok = e.NextAt() {
				e.Step()
			}
		},
		"Domain.Advance": func(e *Engine, until Time) { NewDomain(e).Advance(until, nil) },
	}
	for seed := int64(0); seed < 300; seed++ {
		sc := newSourceScript(rand.New(rand.NewSource(seed)))
		for name, drive := range drivers {
			src, srcTrace := sc.play(true)
			pre, preTrace := sc.play(false)
			for until := Time(0); ; until += 5 {
				drive(src, until)
				drive(pre, until)
				if !reflect.DeepEqual(*srcTrace, *preTrace) {
					t.Fatalf("seed %d, %s to %d: fired\n source        %v\n pre-scheduled %v", seed, name, until, *srcTrace, *preTrace)
				}
				if src.Steps() != pre.Steps() || src.Now() != pre.Now() {
					t.Fatalf("seed %d, %s to %d: steps %d/%d, now %v/%v", seed, name, until,
						src.Steps(), pre.Steps(), src.Now(), pre.Now())
				}
				sAt, sOK := src.NextAt()
				pAt, pOK := pre.NextAt()
				if sAt != pAt || sOK != pOK {
					t.Fatalf("seed %d, %s to %d: NextAt %v,%v vs %v,%v", seed, name, until, sAt, sOK, pAt, pOK)
				}
				// A source holds one queue slot for all of its unfired
				// arrivals; the pre-scheduled engine one per arrival.
				unfired, live := 0, 0
				for _, times := range sc.arrivals {
					n := len(times) - sort.Search(len(times), func(i int) bool { return times[i] > until })
					unfired += n
					if n > 0 {
						live++
					}
				}
				if src.Pending()-live != pre.Pending()-unfired {
					t.Fatalf("seed %d, %s to %d: Pending %d (%d sources) vs %d (%d arrivals)", seed, name, until,
						src.Pending(), live, pre.Pending(), unfired)
				}
				if !pOK {
					break
				}
			}
		}
	}
}
