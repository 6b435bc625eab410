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
//   - Replay and experiments call Domains.Drive: every group's events, and
//     a coordinator engine's cross-group ones, fire in one deterministic
//     (time, group) order, so same-seed runs are byte-identical — while
//     the groups' engines run on GOMAXPROCS goroutines between barriers.
package sim

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// Gate is open while Domains.Drive runs its members' plain events
// concurrently (a window); what members share is guarded or buffered.
type Gate struct {
	open  atomic.Bool
	flush []func()
}

// Open reports whether a window is open; a nil gate never is.
func (g *Gate) Open() bool { return g != nil && g.open.Load() }

// Guard panics inside a window: only shared events (ScheduleShared) and the
// coordinator's may write what, which the members share.
func (g *Gate) Guard(what string) {
	if g.Open() {
		panic("sim: " + what + " written by a plain event inside a Drive window")
	}
}

// OnFlush registers flush, called after each window to merge what the
// members buffered in it before the barrier event fires.
func (g *Gate) OnFlush(flush func()) { g.flush = append(g.flush, flush) }

// Domain is an exclusive handle on one Engine. All engine access — advancing
// the clock, scheduling, submitting work to subsystems built on the engine —
// must go through Advance or Do, which serialize callers. Now is safe to call
// from any goroutine at any time, including from inside another domain's
// callbacks, and never blocks.
type Domain struct {
	mu   sync.Mutex
	eng  *Engine
	now  atomic.Int64 // mirror of eng.Now(), readable without the lock
	gate *Gate
	_    [32]byte // to a cache line: Drive's workers store neighbouring mirrors
}

// NewDomain wraps the engine in a domain. The engine must not be driven
// directly by another goroutine afterwards; a single driver that owns every
// domain exclusively (Domains.Drive) may step the engines without the lock,
// keeping the mirrors fresh itself.
func NewDomain(eng *Engine) *Domain {
	d := &Domain{eng: eng, gate: new(Gate)}
	d.now.Store(int64(eng.Now()))
	return d
}

// NewDomains wraps each engine in a domain, all sharing one Gate.
func NewDomains(engs []*Engine) Domains {
	g, ds := new(Gate), make(Domains, len(engs))
	for i, eng := range engs {
		ds[i] = NewDomain(eng)
		ds[i].gate = g
	}
	return ds
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
// the most advanced member clock: a deployment's telemetry hub uses it
// between Drive windows; a group reads its own domain's clock.
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

// Gate returns the members' gate: NewDomains gives them one.
func (ds Domains) Gate() *Gate {
	if len(ds) == 0 {
		return new(Gate)
	}
	return ds[0].gate
}

// Drive runs every member engine and coord (nil: none) through until, in one
// deterministic order: events fire by time, then by member index, then by
// each engine's own sequence, and coord's events fire after every member's at
// the same instant. Before a coord event at t every member's clock is moved
// to t, so coord's callbacks may act on any member — schedule onto its
// engine, submit to its subsystems — and the caller sees every member at t.
// A member's own events schedule only onto its own engine. Each member's
// mirror is stored before each of its steps, so Now readers see the event's
// own time. Finally every clock is moved to until, as Engine.Run does.
//
// Barriers keep that order: the next coord event and the next shared member
// event (ScheduleShared) by (time, member, sequence). Up to one, the members
// fire their plain events on GOMAXPROCS goroutines, with their gate open
// (NewDomains gives them one). Then its OnFlush hooks merge what they
// buffered, and the barrier event fires alone on the caller. A barrier
// allocates nothing.
//
// Drive takes no domain lock: the caller owns every member exclusively for
// the call (no Advance or Do may run concurrently).
func (ds Domains) Drive(coord *Engine, until Time) {
	g, busy, steps := ds.Gate(), []int(nil), make([]uint64, len(ds)) // steps: in the last window each ran
	// The barrier: lim keys it; owner is the member whose shared event ev it
	// is, len(ds) when it is coord's next event, -1 with none.
	var lim key
	var owner int
	var ev *Event
	run := func(_ struct{}, k int) { steps[busy[k]] = ds[busy[k]].runBefore(lim, busy[k]) }
	for {
		lim, owner, ev = key{until, len(ds), 0}, -1, nil
		if coord != nil {
			if t, ok := coord.NextAt(); ok && t <= until {
				lim.at, owner = t, len(ds)
			}
		}
		for i, d := range ds {
			for _, e := range d.eng.shared {
				if k := (key{e.at, i, e.seq}); k.less(lim) {
					lim, owner, ev = k, i, e
				}
			}
		}
		// The window: the busiest members of the last one go first.
		busy = busy[:0]
		for i, d := range ds {
			if q := d.eng.queue; len(q) > 0 && (key{q[0].at, i, q[0].seq}).less(lim) {
				busy = append(busy, i)
			}
		}
		g.open.Store(true)
		for _, i := range busy {
			ds[i].eng.window = true
		}
		slices.SortStableFunc(busy, func(a, b int) int { return cmp.Compare(steps[b], steps[a]) })
		par.Each(0, len(busy), nil, run)
		for _, i := range busy {
			ds[i].eng.window = false
		}
		g.open.Store(false)
		for _, flush := range g.flush {
			flush()
		}
		switch {
		case owner < 0:
			ds.moveTo(until)
			if coord != nil {
				coord.Run(until)
			}
			return
		case owner == len(ds):
			ds.moveTo(lim.at)
			coord.Step()
		case ev.pos > 0: // not cancelled in the window: the head
			ds[owner].now.Store(int64(ev.at))
			ds[owner].eng.Step()
		}
	}
}

// key orders member events across engines: time, member index, sequence.
type key struct {
	at     Time
	member int
	seq    uint64
}

func (k key) less(o key) bool {
	return k.at < o.at || k.at == o.at && (k.member < o.member || k.member == o.member && k.seq < o.seq)
}

// runBefore fires (and counts) member i's events keyed before lim, all
// plain, storing the mirror before each.
func (d *Domain) runBefore(lim key, i int) uint64 {
	e, n := d.eng, d.eng.nsteps
	for len(e.queue) > 0 && (key{e.queue[0].at, i, e.queue[0].seq}).less(lim) {
		d.now.Store(int64(e.queue[0].at))
		e.Step()
	}
	return e.nsteps - n
}

// moveTo moves every member clock (and mirror) forward to t; the caller has
// fired every member event due by then.
func (ds Domains) moveTo(t Time) {
	for _, d := range ds {
		d.eng.Run(t)
		d.now.Store(int64(d.eng.Now()))
	}
}
