// Clock domains: the concurrency boundary around an Engine.
//
// The Engine itself is deliberately single-threaded — determinism comes from
// one driver executing events in (time, sequence) order. A Domain wraps one
// Engine with a mutex so multiple goroutines can share it safely, and keeps a
// lock-free mirror of the clock so other domains (and the telemetry hub) can
// read "now" without contending for the engine.
//
// Every tenant-group runs on a domain of its own: its MPPDBs, router,
// monitor, and controllers are built on the domain's engine, and nothing
// crosses group boundaries at query time (§3–§5). Two drivers use them:
//
//   - The service advances each domain under its lock, against the wall
//     clock, so requests touching different groups proceed fully in
//     parallel.
//   - Replay and experiments call Domains.Drive: one goroutine fires every
//     group's events, and a coordinator engine's cross-group ones, in one
//     deterministic (time, group) order, so same-seed runs are
//     byte-identical.
package sim

import (
	"sync"
	"sync/atomic"
)

// Domain is an exclusive handle on one Engine. All engine access — advancing
// the clock, scheduling, submitting work to subsystems built on the engine —
// must go through Advance or Do, which serialize callers. Now is safe to call
// from any goroutine at any time, including from inside another domain's
// callbacks, and never blocks.
type Domain struct {
	mu  sync.Mutex
	eng *Engine
	now atomic.Int64 // mirror of eng.Now(), readable without the lock
}

// NewDomain wraps the engine in a domain. The engine must not be driven
// directly by another goroutine afterwards; a single driver that owns every
// domain exclusively (Domains.Drive) may step the engines without the lock,
// keeping the mirrors fresh itself.
func NewDomain(eng *Engine) *Domain {
	d := &Domain{eng: eng}
	d.now.Store(int64(eng.Now()))
	return d
}

// Now returns the domain's virtual time without taking the domain lock. The
// value is exact while the domain is quiescent and at most one event stale
// while Advance is mid-run.
func (d *Domain) Now() Time { return Time(d.now.Load()) }

// Advance acquires the domain, runs the engine up to target — stepping
// event-by-event so concurrent Now readers observe a fresh clock — and then,
// when fn is non-nil, runs fn with exclusive engine access at the advanced
// clock. A target at or before the current clock only runs fn. fn must not
// re-enter this domain (Advance/Do on the same domain deadlocks); it may read
// other domains' clocks freely.
func (d *Domain) Advance(target Time, fn func(*Engine)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		at, ok := d.eng.NextAt()
		if !ok || at > target {
			break
		}
		d.now.Store(int64(at))
		d.eng.Step()
	}
	if target > d.eng.Now() {
		d.eng.Run(target) // due events are drained: this is the final clock bump
	}
	d.now.Store(int64(d.eng.Now()))
	if fn != nil {
		fn(d.eng)
		d.now.Store(int64(d.eng.Now()))
	}
}

// Do runs fn with exclusive engine access without advancing the clock first.
func (d *Domain) Do(fn func(*Engine)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fn(d.eng)
	d.now.Store(int64(d.eng.Now()))
}

// Domains bundles several clock domains into one read-only clock whose Now is
// the most advanced member clock. A deployment's telemetry hub uses this as
// its timestamp source: it is lock-free, so instrumentation sites may call it
// while holding any single domain's lock without deadlock.
type Domains []*Domain

// Now returns the most advanced member clock (zero with no members).
func (ds Domains) Now() Time {
	var max Time
	for _, d := range ds {
		if t := d.Now(); t > max {
			max = t
		}
	}
	return max
}

// Drive runs every member engine and coord (nil: none) through until on the
// calling goroutine, in one deterministic order: events fire by time, then by
// member index, then by each engine's own sequence, and coord's events fire
// after every member's at the same instant. Before a coord event at t every
// member's clock is moved to t, so coord's callbacks may act on any member —
// schedule onto its engine, submit to its subsystems — and the caller sees
// every member at t. A member's own events schedule only onto its own engine.
// Each member's mirror is stored before each of its steps, so Now readers see
// the event's own time. Finally every clock is moved to until, as Engine.Run
// does.
//
// Drive takes no domain lock: the caller owns every member exclusively for
// the call (no Advance or Do may run concurrently).
func (ds Domains) Drive(coord *Engine, until Time) {
	q := driveQueue{ds: ds, at: make([]Time, len(ds))}
	q.rebuild(until)
	for {
		cAt, cOK := Time(0), false
		if coord != nil {
			cAt, cOK = coord.NextAt()
			cOK = cOK && cAt <= until
		}
		// Members' steps schedule only onto their own engines, so cAt holds.
		for len(q.heap) > 0 && (!cOK || q.at[q.heap[0]] <= cAt) {
			i := q.heap[0]
			d := ds[i]
			d.now.Store(int64(q.at[i]))
			d.eng.Step()
			if at, ok := d.eng.NextAt(); ok && at <= until {
				q.at[i] = at
				q.down(0)
			} else {
				q.pop()
			}
		}
		if !cOK {
			break
		}
		ds.moveTo(cAt)
		coord.Step()
		q.rebuild(until) // coord may have scheduled onto any member
	}
	ds.moveTo(until)
	if coord != nil {
		coord.Run(until)
	}
}

// moveTo moves every member clock (and mirror) forward to t; the caller has
// fired every member event due by then.
func (ds Domains) moveTo(t Time) {
	for _, d := range ds {
		d.eng.Run(t)
		d.now.Store(int64(d.eng.Now()))
	}
}

// driveQueue is Drive's min-heap of member indices keyed by (next event
// time, index), holding the members with an event due by the horizon.
type driveQueue struct {
	ds   Domains
	at   []Time // member i's next event time, valid while i is queued
	heap []int
}

// rebuild re-reads every member's next event and heapifies.
func (q *driveQueue) rebuild(until Time) {
	q.heap = q.heap[:0]
	for i, d := range q.ds {
		if at, ok := d.eng.NextAt(); ok && at <= until {
			q.at[i] = at
			q.heap = append(q.heap, i)
		}
	}
	for k := len(q.heap)/2 - 1; k >= 0; k-- {
		q.down(k)
	}
}

func (q *driveQueue) less(a, b int) bool {
	return q.at[a] < q.at[b] || q.at[a] == q.at[b] && a < b
}

// pop drops the top member.
func (q *driveQueue) pop() {
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0)
	}
}

// down sifts the member at heap position k towards the leaves.
func (q *driveQueue) down(k int) {
	h := q.heap
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && q.less(h[r], h[c]) {
			c = r
		}
		if !q.less(h[c], h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}
