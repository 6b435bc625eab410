// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, which makes
// every simulation in this repository exactly reproducible from its seed.
// All subsystems that need the passage of time (MPPDB query execution, bulk
// loading, activity monitoring, elastic scaling) are driven by engines: one
// per tenant-group, each behind a clock Domain (see domain.go).
package sim

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
)

// Time is a virtual timestamp, measured in nanoseconds since the start of the
// simulation. It is a distinct type (rather than time.Time) because simulated
// experiments span weeks of virtual time and have no wall-clock anchor.
type Time int64

// Common time constants expressed as durations from the simulation origin.
const (
	Millisecond Time = Time(time.Millisecond)
	Second      Time = Time(time.Second)
	Minute      Time = Time(time.Minute)
	Hour        Time = Time(time.Hour)
	Day              = 24 * Hour
)

// MaxTime is the largest representable virtual timestamp.
const MaxTime Time = math.MaxInt64

// Duration converts a time.Duration into the engine's tick unit.
func Duration(d time.Duration) Time { return Time(d) }

// Seconds returns t expressed in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Sub returns the duration between t and u as a time.Duration.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// String formats the timestamp as d:hh:mm:ss.mmm for logs and traces.
func (t Time) String() string {
	var buf [32]byte
	return string(t.AppendFormat(buf[:0]))
}

// AppendFormat appends the String form of t to b without allocating: the
// day count unpadded, then two-digit hours, minutes and seconds and
// three-digit milliseconds (truncated, not rounded).
func (t Time) AppendFormat(b []byte) []byte {
	u := uint64(t)
	if t < 0 {
		b = append(b, '-')
		u = -u
	}
	b = strconv.AppendUint(b, u/uint64(Day), 10)
	h, m := u%uint64(Day)/uint64(Hour), u%uint64(Hour)/uint64(Minute)
	s, ms := u%uint64(Minute)/uint64(Second), u%uint64(Second)/uint64(Millisecond)
	return append(b, 'd',
		byte('0'+h/10), byte('0'+h%10), ':',
		byte('0'+m/10), byte('0'+m%10), ':',
		byte('0'+s/10), byte('0'+s%10), '.',
		byte('0'+ms/100), byte('0'+ms/10%10), byte('0'+ms%10))
}

// Event is a scheduled callback. It is returned by Schedule so callers can
// cancel pending events. A caller with one recurring callback (a
// processor-sharing executor's predicted completion, a sampling tick) passes
// the same event to Reschedule for its whole life; the zero Event is one that
// was never queued, so such a caller may embed it instead of holding a
// pointer.
type Event struct {
	at       Time
	seq      uint64
	pos      int // 1 + heap index; 0 while not queued
	canceled bool
	shared   bool // see ScheduleShared
	fn       func(now Time)
	// src marks the head of an attached source (see Attach): the event fires
	// src instead of fn and re-keys itself to the next arrival.
	src func(now Time) (next Time, ok bool)
}

// At reports the virtual time at which the event fires (or would have fired).
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel was called before the event fired.
func (e *Event) Canceled() bool { return e.canceled }

// before is the queue order: time, then scheduling sequence.
func (e *Event) before(o *Event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with NewEngine.
type Engine struct {
	now Time
	seq uint64
	// queue is a binary min-heap in (time, sequence) order. It holds only
	// live events: Cancel takes an event out the moment it is called.
	queue  []*Event
	nsteps uint64
	// shared holds the queued shared events; window is set in a Drive window.
	shared []*Event
	window bool
}

// NewEngine returns an engine with the clock at time zero and no pending
// events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far (useful for tests and
// for guarding against runaway simulations).
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending returns the number of events currently scheduled, an attached
// source counting as one.
func (e *Engine) Pending() int { return len(e.queue) }

// NextAt reports the fire time of the earliest pending event. Clock-domain
// drivers use it to step an engine event-by-event while keeping a lock-free
// mirror of the clock fresh for concurrent readers.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Schedule registers fn to run at the absolute virtual time at. Scheduling in
// the past panics: it always indicates a logic error in the caller, and
// silently clamping would hide it.
func (e *Engine) Schedule(at Time, fn func(now Time)) *Event {
	return e.Reschedule(nil, at, fn)
}

// ScheduleShared is Schedule for an event that touches what other engines'
// do — the node pool, the triage — which Domains.Drive fires alone, between
// windows; a plain event in a window may not schedule one.
func (e *Engine) ScheduleShared(at Time, fn func(now Time)) *Event {
	return e.Reschedule(&Event{shared: true}, at, fn)
}

// AfterShared is After for a shared event.
func (e *Engine) AfterShared(d time.Duration, fn func(now Time)) *Event {
	return e.ScheduleShared(e.now.Add(max(d, 0)), fn)
}

// Reschedule makes ev fire fn at at, exactly as cancelling ev and scheduling
// fn anew would: it takes a fresh sequence number, so it orders after every
// event already scheduled for at. A queued ev is re-keyed in place; one that
// fired or was cancelled is queued again and no longer Canceled; a nil ev is
// allocated. It returns the event, which a caller keeps to pass back on its
// next Reschedule — one event for the life of a recurring callback. A non-nil
// ev is a zero Event or one this engine queued before.
func (e *Engine) Reschedule(ev *Event, at Time, fn func(now Time)) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if ev == nil {
		ev = &Event{}
	}
	if ev.shared && e.window {
		panic("sim: a plain event scheduled a shared event inside a Drive window")
	}
	e.seq++
	ev.at, ev.seq, ev.fn, ev.canceled = at, e.seq, fn, false
	if ev.pos > 0 {
		e.fix(ev.pos - 1)
	} else {
		e.push(ev)
	}
	return ev
}

// Attach registers a source: a lazy, time-ordered sequence of arrivals that
// costs the queue one slot instead of one event per arrival. first is when
// the first arrival is due; fire delivers the arrival due at now and reports
// when the next one is due (never before now), ok false once exhausted. The
// source takes one sequence number here and keeps it for every arrival, so
// arrivals fire in exactly the order they would had each been Scheduled at
// this point: after same-instant events scheduled earlier, before those
// scheduled later (callbacks included), in source order among themselves.
// Each arrival is one Step; a live source is one Pending event. Several
// sources may be attached, each ordering by its own attach point.
func (e *Engine) Attach(first Time, fire func(now Time) (next Time, ok bool)) {
	if first < e.now {
		panic(fmt.Sprintf("sim: attach at %v before now %v", first, e.now))
	}
	e.seq++
	e.push(&Event{at: first, seq: e.seq, src: fire})
}

// After registers fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func(now Time)) *Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), fn)
}

// Cancel marks ev so that it will not fire and removes it from the queue.
// Canceling an already-fired or already-canceled event only marks it.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	ev.canceled = true
	if ev.pos > 0 {
		e.remove(ev)
	}
}

// Step executes the single earliest pending event. It reports false when the
// queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0]
	if ev.src != nil {
		e.fireSource(ev)
		return true
	}
	e.remove(ev)
	if ev.at < e.now {
		panic("sim: event time moved backwards")
	}
	e.now = ev.at
	e.nsteps++
	ev.fn(e.now)
	return true
}

// fireSource delivers the head arrival of the source whose event tops the
// queue. The event stays queued while the arrival runs — nothing a callback
// schedules at or after now can order before it — and then moves to the
// source's next arrival under the same sequence number.
func (e *Engine) fireSource(ev *Event) {
	e.now = ev.at
	e.nsteps++
	next, ok := ev.src(e.now)
	if !ok {
		e.remove(ev)
		return
	}
	if next < e.now {
		panic(fmt.Sprintf("sim: source arrival at %v before now %v", next, e.now))
	}
	ev.at = next
	e.fix(ev.pos - 1)
}

// Run executes events until the queue drains or the next event would fire
// after until. The clock is finally advanced to until (never backwards), so
// time-based measurements cover the full horizon even if activity ends early.
func (e *Engine) Run(until Time) {
	for len(e.queue) > 0 && e.queue[0].at <= until {
		e.Step()
	}
	if until > e.now {
		e.now = until
	}
}

// RunAll executes events until the queue is empty.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// The queue's heap operations, on concrete types: every (time, sequence) key
// is unique, so any valid heap pops the events in one order.

// push queues ev.
func (e *Engine) push(ev *Event) {
	e.queue = append(e.queue, ev)
	e.up(len(e.queue) - 1)
	if ev.shared {
		e.shared = append(e.shared, ev)
	}
}

// remove takes a queued ev out of the queue.
func (e *Engine) remove(ev *Event) {
	if ev.shared {
		i := slices.Index(e.shared, ev)
		e.shared = slices.Delete(e.shared, i, i+1)
	}
	i, n := ev.pos-1, len(e.queue)-1
	if i != n {
		e.queue[i] = e.queue[n]
		e.queue[i].pos = i + 1
	}
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if i != n {
		e.fix(i)
	}
	ev.pos = 0
}

// fix restores the heap after the key at position i changed.
func (e *Engine) fix(i int) {
	if !e.down(i) {
		e.up(i)
	}
}

// up moves the event at position i towards the root while it orders before
// its parent.
func (e *Engine) up(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].pos = i + 1
		i = p
	}
	q[i] = ev
	ev.pos = i + 1
}

// down moves the event at position i towards the leaves while a child orders
// before it, reporting whether it moved.
func (e *Engine) down(i int) bool {
	q := e.queue
	ev, i0 := q[i], i
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		q[i].pos = i + 1
		i = c
	}
	q[i] = ev
	ev.pos = i + 1
	return i > i0
}
