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
	flush []func() func()
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

// OnFlush registers take, called after each window to hand the buffers to a
// merge that runs before the barrier event or beside the next window.
func (g *Gate) OnFlush(take func() func()) { g.flush = append(g.flush, take) }

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

// stride bounds a window's span, and so its buffers: the 200-tenant replay's
// busiest half-hour buffers about 9k trace writes, 1 MB.
const stride = 30 * Minute

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
// Barriers keep that order: the next coord event, the next shared member
// event (ScheduleShared) by (time, member, sequence), and a stride's end. Up
// to one, the members fire their plain events on GOMAXPROCS goroutines, with
// their gate open (NewDomains gives them one). Then its OnFlush hooks take
// what they buffered, and the barrier event fires alone on the caller.
//
// Drive takes no domain lock: the caller owns every member exclusively for
// the call (no Advance or Do may run concurrently).
func (ds Domains) Drive(coord *Engine, until Time) {
	w := windows{ds: ds, steps: make([]uint64, len(ds))}
	for {
		lim, fire := key{until, len(ds), 0}, (func())(nil)
		if coord != nil {
			if at, ok := coord.NextAt(); ok && at <= until {
				lim.at, fire = at, func() { ds.moveTo(at); coord.Step() }
			}
		}
		first := MaxTime
		for i, d := range ds {
			if at, ok := d.eng.NextAt(); ok && at < first {
				first = at
			}
			for _, ev := range d.eng.shared {
				if k := (key{ev.at, i, ev.seq}); k.less(lim) {
					lim, fire = k, func() {
						if ev.pos > 0 { // not cancelled in the window: the head
							d.now.Store(int64(ev.at))
							d.eng.Step()
						}
					}
				}
			}
		}
		if end := (first/stride + 1) * stride; first < MaxTime-stride && end < lim.at {
			w.run(key{end, 0, 0}, true)
			continue
		}
		w.run(lim, false)
		if fire == nil {
			ds.moveTo(until)
			if coord != nil {
				coord.Run(until)
			}
			return
		}
		fire()
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

// windows is Drive's state across windows.
type windows struct {
	ds    Domains
	busy  []int
	steps []uint64 // each member's steps in the last window it ran
	merge []func() // the last window's merges, to run beside this one
}

// run fires the members' plain events keyed before lim beside the last
// window's merges, then takes the buffers, merging now unless at a stride.
func (w *windows) run(lim key, atStride bool) {
	w.busy = w.busy[:0]
	for i, d := range w.ds {
		if q := d.eng.queue; len(q) > 0 && (key{q[0].at, i, q[0].seq}).less(lim) {
			w.busy = append(w.busy, i)
		}
	}
	// Merges, then the busiest members of the last window go first.
	slices.SortStableFunc(w.busy, func(a, b int) int { return cmp.Compare(w.steps[b], w.steps[a]) })
	m, g := len(w.merge), w.ds.Gate()
	g.open.Store(true)
	for _, i := range w.busy {
		w.ds[i].eng.window = true
	}
	par.Each(0, m+len(w.busy), nil, func(_ struct{}, k int) {
		if k < m {
			w.merge[k]()
			return
		}
		i := w.busy[k-m]
		w.steps[i] = w.ds[i].runBefore(lim, i)
	})
	for _, i := range w.busy {
		w.ds[i].eng.window = false
	}
	g.open.Store(false)
	w.merge = w.merge[:0]
	for _, take := range g.flush {
		w.merge = append(w.merge, take())
	}
	if !atStride {
		for _, fn := range w.merge {
			fn()
		}
		w.merge = w.merge[:0]
	}
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
