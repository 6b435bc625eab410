package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The engine against a naive oracle: one op sequence of Schedule, After,
// Cancel and Reschedule — on queued, fired, cancelled and zero events —
// Attach of sources that run dry, Step and Run drives both the engine and a
// plain slice of events scanned for the least (time, sequence) key, with a
// sequence counter of its own. Fire order, Now, Steps, Pending, NextAt and
// every handle's At and Canceled must agree after every op.

// Op kinds; an op is three bytes, kind and two arguments.
const (
	engSchedule = iota
	engAfter
	engCancel
	engReschedule
	engAttach
	engStep
	engRun
	engKinds
)

// engSpan keeps times on a few instants, so most events tie with another.
const engSpan = 6

type engOp struct{ kind, a, b byte }

func decodeEngOps(data []byte) []engOp {
	ops := make([]engOp, 0, len(data)/3)
	for ; len(data) >= 3; data = data[3:] {
		ops = append(ops, engOp{data[0] % engKinds, data[1], data[2]})
	}
	return ops
}

// naiveEvent is one oracle slot: a handle's event or a source.
type naiveEvent struct {
	name     string
	at       Time
	seq      uint64
	queued   bool
	canceled bool
	handle   int    // the handle it models, -1 for a source
	times    []Time // a source's arrivals; times[next] is due at at
	next     int
}

// engWorld drives an Engine and the oracle with one op sequence; each side's
// callbacks append to a trace of its own. A handle may carry re-keys: each
// time it fires it reschedules itself from its own callback, as an MPPDB's
// completion event does, until they run out. Both sides count them apart.
type engWorld struct {
	t   *testing.T
	eng *Engine
	got []string

	now    Time
	seq    uint64
	steps  uint64
	events []*naiveEvent
	want   []string

	handles     []*Event
	oracle      []*naiveEvent // parallel to handles
	rekeys      []int         // the engine side's re-keys left
	naiveRekeys []int         // the oracle's
	sources     int
}

func (w *engWorld) fn(h int) func(Time) {
	return func(now Time) {
		w.got = append(w.got, fmt.Sprintf("h%d@%d", h, now))
		if w.rekeys[h] > 0 {
			w.rekeys[h]--
			if ev := w.eng.Reschedule(w.handles[h], now+Time(w.rekeys[h]%2), w.fn(h)); ev != w.handles[h] {
				w.t.Fatalf("Reschedule of the firing handle %d returned another event", h)
			}
		}
	}
}

// min is the oracle's next event: the queued one with the least (at, seq).
func (w *engWorld) min() *naiveEvent {
	var best *naiveEvent
	for _, ev := range w.events {
		if ev.queued && (best == nil || ev.at < best.at || ev.at == best.at && ev.seq < best.seq) {
			best = ev
		}
	}
	return best
}

// fire is the oracle's Step of ev.
func (w *engWorld) fire(ev *naiveEvent) {
	w.now = ev.at
	w.steps++
	if ev.handle < 0 {
		w.want = append(w.want, fmt.Sprintf("%s#%d@%d", ev.name, ev.next, w.now))
		if ev.next++; ev.next == len(ev.times) {
			ev.queued = false
		} else {
			ev.at = ev.times[ev.next]
		}
		return
	}
	ev.queued = false
	w.want = append(w.want, fmt.Sprintf("%s@%d", ev.name, w.now))
	if h := ev.handle; w.naiveRekeys[h] > 0 {
		w.naiveRekeys[h]--
		w.rekey(ev, w.now+Time(w.naiveRekeys[h]%2))
	}
}

// rekey is the oracle's Reschedule of a handle's event.
func (w *engWorld) rekey(ev *naiveEvent, at Time) {
	w.seq++
	ev.at, ev.seq, ev.queued, ev.canceled = at, w.seq, true, false
}

// schedule creates a handle on both sides: ev from the engine, at on the
// oracle's.
func (w *engWorld) schedule(at Time, rekeys int, create func(fn func(Time)) *Event) {
	h := len(w.handles)
	w.rekeys = append(w.rekeys, rekeys)
	w.naiveRekeys = append(w.naiveRekeys, rekeys)
	w.handles = append(w.handles, nil)
	w.handles[h] = create(w.fn(h))
	w.seq++
	ev := &naiveEvent{name: fmt.Sprintf("h%d", h), at: at, seq: w.seq, queued: true, handle: h}
	w.oracle = append(w.oracle, ev)
	w.events = append(w.events, ev)
}

func (w *engWorld) apply(op engOp) {
	a, b := Time(op.a), Time(op.b)
	switch op.kind {
	case engSchedule:
		at := w.now + a%engSpan
		w.schedule(at, int(b%3), func(fn func(Time)) *Event { return w.eng.Schedule(at, fn) })
	case engAfter:
		d := time.Duration(a % engSpan)
		if b%4 == 0 {
			d = -d // clamps to now
		}
		w.schedule(w.now+Time(max(d, 0)), int(b%3), func(fn func(Time)) *Event { return w.eng.After(d, fn) })
	case engCancel:
		if len(w.handles) == 0 || b%8 == 0 {
			w.eng.Cancel(nil)
			return
		}
		h := int(op.a) % len(w.handles)
		w.eng.Cancel(w.handles[h])
		w.oracle[h].canceled, w.oracle[h].queued = true, false
	case engReschedule:
		at := w.now + b%engSpan
		if len(w.handles) == 0 || a%5 == 0 {
			// A new event: allocated by the engine, or a zero one the caller
			// holds, as an MPPDB embeds its completion event.
			var ev *Event
			if a%2 == 0 {
				ev = new(Event)
			}
			w.schedule(at, int(a%3), func(fn func(Time)) *Event { return w.eng.Reschedule(ev, at, fn) })
			return
		}
		h := int(op.a) % len(w.handles)
		if ev := w.eng.Reschedule(w.handles[h], at, w.fn(h)); ev != w.handles[h] {
			w.t.Fatalf("Reschedule of handle %d returned another event", h)
		}
		w.rekey(w.oracle[h], at)
	case engAttach:
		times := []Time{w.now + a%engSpan}
		for i := 0; i < int(b%4); i++ {
			times = append(times, times[i]+b>>(2+i)&1)
		}
		name := fmt.Sprintf("s%d", w.sources)
		w.sources++
		next := 0
		w.eng.Attach(times[0], func(now Time) (Time, bool) {
			w.got = append(w.got, fmt.Sprintf("%s#%d@%d", name, next, now))
			if next++; next == len(times) {
				return 0, false
			}
			return times[next], true
		})
		w.seq++
		w.events = append(w.events, &naiveEvent{name: name, at: times[0], seq: w.seq, queued: true, handle: -1, times: times})
	case engStep:
		ok := w.eng.Step()
		ev := w.min()
		if ev != nil {
			w.fire(ev)
		}
		if ok != (ev != nil) {
			w.t.Fatalf("Step reported %v, the oracle had an event: %v", ok, ev != nil)
		}
	case engRun:
		until := w.now + a%(2*engSpan)
		w.eng.Run(until)
		for ev := w.min(); ev != nil && ev.at <= until; ev = w.min() {
			w.fire(ev)
		}
		w.now = max(w.now, until)
	}
}

// compare fails the test at the first observable difference.
func (w *engWorld) compare(step int, op engOp) {
	t := w.t
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("after op %d %+v: %s = %v, oracle %v", step, op, what, got, want)
	}
	if !reflect.DeepEqual(w.got, w.want) {
		fail("fired", w.got, w.want)
	}
	if w.eng.Now() != w.now {
		fail("Now", w.eng.Now(), w.now)
	}
	if w.eng.Steps() != w.steps {
		fail("Steps", w.eng.Steps(), w.steps)
	}
	pending := 0
	for _, ev := range w.events {
		if ev.queued {
			pending++
		}
	}
	if w.eng.Pending() != pending {
		fail("Pending", w.eng.Pending(), pending)
	}
	var wantAt Time
	next := w.min()
	if next != nil {
		wantAt = next.at
	}
	if at, ok := w.eng.NextAt(); at != wantAt || ok != (next != nil) {
		fail("NextAt", fmt.Sprint(at, ok), fmt.Sprint(wantAt, next != nil))
	}
	for h, ev := range w.handles {
		if ev.At() != w.oracle[h].at || ev.Canceled() != w.oracle[h].canceled {
			fail(fmt.Sprintf("handle %d At, Canceled", h), fmt.Sprint(ev.At(), ev.Canceled()),
				fmt.Sprint(w.oracle[h].at, w.oracle[h].canceled))
		}
	}
}

func runEngine(t *testing.T, ops []engOp) {
	t.Helper()
	w := &engWorld{t: t, eng: NewEngine()}
	for i, op := range ops {
		w.apply(op)
		w.compare(i, op)
	}
	// Drained, both sides end on the same trace and clock.
	w.apply(engOp{kind: engRun, a: 255})
	w.eng.RunAll()
	for ev := w.min(); ev != nil; ev = w.min() {
		w.fire(ev)
	}
	w.compare(len(ops), engOp{kind: engRun})
}

func TestEngineMatchesNaiveQueue(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*(20+rng.Intn(180)))
		rng.Read(data)
		runEngine(t, decodeEngOps(data))
	}
}

func FuzzEngine(f *testing.F) {
	f.Add([]byte{
		engSchedule, 2, 1, engSchedule, 2, 0, engReschedule, 1, 2, // re-key the first behind the second
		engAttach, 2, 7, engCancel, 1, 1, engStep, 0, 0,
		engReschedule, 1, 1, engRun, 4, 0, engReschedule, 0, 3, engRun, 11, 0,
	})
	f.Add([]byte{engAfter, 3, 4, engAttach, 0, 3, engStep, 0, 0, engCancel, 0, 1, engReschedule, 0, 0, engRun, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*300 {
			data = data[:3*300]
		}
		runEngine(t, decodeEngOps(data))
	})
}
