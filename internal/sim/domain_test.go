package sim

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestDomainAdvanceRunsDueEventsAndBumpsClock(t *testing.T) {
	eng := NewEngine()
	d := NewDomain(eng)
	var fired []Time
	eng.Schedule(2*Second, func(now Time) { fired = append(fired, now) })
	eng.Schedule(5*Second, func(now Time) { fired = append(fired, now) })
	eng.Schedule(9*Second, func(now Time) { fired = append(fired, now) })

	d.Advance(6*Second, nil)
	if len(fired) != 2 || fired[0] != 2*Second || fired[1] != 5*Second {
		t.Fatalf("fired = %v", fired)
	}
	if d.Now() != 6*Second {
		t.Errorf("Now = %v, want 6s", d.Now())
	}
	// Advancing backwards is a no-op, not a rewind.
	d.Advance(3*Second, nil)
	if d.Now() != 6*Second {
		t.Errorf("Now after backwards advance = %v", d.Now())
	}
	d.Advance(20*Second, nil)
	if len(fired) != 3 || d.Now() != 20*Second {
		t.Errorf("fired = %v, Now = %v", fired, d.Now())
	}
}

func TestDomainAdvanceRunsFnAtTarget(t *testing.T) {
	eng := NewEngine()
	d := NewDomain(eng)
	var at Time
	d.Advance(4*Second, func(e *Engine) { at = e.Now() })
	if at != 4*Second {
		t.Errorf("fn saw %v, want 4s", at)
	}
	// Events scheduled by fn fire on the next Advance.
	var fired bool
	d.Advance(4*Second, func(e *Engine) {
		e.After(time.Second, func(Time) { fired = true })
	})
	d.Advance(5*Second, nil)
	if !fired {
		t.Error("event scheduled inside fn did not fire")
	}
}

func TestDomainNowIsFreshDuringSteps(t *testing.T) {
	// The mirror must be updated before each event executes so code inside a
	// callback that consults another clock (e.g. the telemetry hub reading a
	// Domains set) sees this domain at the event's own timestamp.
	eng := NewEngine()
	d := NewDomain(eng)
	var seen Time
	eng.Schedule(7*Second, func(Time) { seen = d.Now() })
	d.Advance(10*Second, nil)
	if seen != 7*Second {
		t.Errorf("callback saw mirror at %v, want 7s", seen)
	}
}

func TestDomainConcurrentDrivers(t *testing.T) {
	// Many goroutines advancing and scheduling on one domain must serialize
	// cleanly (run with -race) and execute every event exactly once.
	eng := NewEngine()
	d := NewDomain(eng)
	var mu sync.Mutex
	count := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				target := Time(g*50+i+1) * Millisecond
				d.Advance(target, func(e *Engine) {
					e.After(time.Millisecond, func(Time) {
						mu.Lock()
						count++
						mu.Unlock()
					})
				})
			}
		}(g)
	}
	wg.Wait()
	d.Advance(Hour, nil)
	if count != 400 {
		t.Errorf("executed %d events, want 400", count)
	}
}

func TestDomainsClockReportsMax(t *testing.T) {
	a, b := NewDomain(NewEngine()), NewDomain(NewEngine())
	set := Domains{a, b}
	if set.Now() != 0 {
		t.Errorf("empty clocks Now = %v", set.Now())
	}
	a.Advance(3*Second, nil)
	b.Advance(8*Second, nil)
	if set.Now() != 8*Second {
		t.Errorf("Now = %v, want 8s", set.Now())
	}
	if (Domains{}).Now() != 0 {
		t.Error("no-member clock should read 0")
	}
}

func TestEngineNextAt(t *testing.T) {
	eng := NewEngine()
	if _, ok := eng.NextAt(); ok {
		t.Error("empty engine reported a pending event")
	}
	ev := eng.Schedule(4*Second, func(Time) {})
	eng.Schedule(6*Second, func(Time) {})
	if at, ok := eng.NextAt(); !ok || at != 4*Second {
		t.Errorf("NextAt = %v,%v", at, ok)
	}
	eng.Cancel(ev)
	if at, ok := eng.NextAt(); !ok || at != 6*Second {
		t.Errorf("NextAt after cancel = %v,%v", at, ok)
	}
}

// driveTick is the fuzzed worlds' time unit.
const driveTick = 7 * Minute

// driveWorld is FuzzDomainsDrive's input made engines: member domains and a
// coordinator (engine index len(ds)), each event logging (engine, id, time).
// A member's plain event logs the way a telemetry view does: into the
// member's own buffer while a Drive window is open, which the gate's flush
// merges into the one log by (time, member, write order); every other write
// goes straight to the log.
type driveWorld struct {
	t      *testing.T
	ds     Domains
	coord  *Engine
	log    [][3]int64
	bufs   [][][3]int64
	shared []*Event // per member, the last shared event it scheduled
}

func (w *driveWorld) engine(i int) *Engine {
	if i == len(w.ds) {
		return w.coord
	}
	return w.ds[i].eng
}

// write logs one firing of event id on engine i.
func (w *driveWorld) write(i, id int, now Time) {
	e := [3]int64{int64(i), int64(id), int64(now)}
	if i < len(w.ds) && w.ds[i].gate.Open() {
		w.bufs[i] = append(w.bufs[i], e)
		return
	}
	w.log = append(w.log, e)
}

// flush merges the members' buffers into the log — least time first, ties
// to the lower member, each buffer in its own order.
func (w *driveWorld) flush() {
	bufs := w.bufs
	w.bufs = make([][][3]int64, len(bufs))
	next := make([]int, len(bufs))
	for {
		best := -1
		for i, b := range bufs {
			if next[i] < len(b) && (best < 0 || b[next[i]][2] < bufs[best][next[best]][2]) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		w.log = append(w.log, bufs[best][next[best]])
		next[best]++
	}
}

// schedule puts event id on engine i at at, shared or plain.
func (w *driveWorld) schedule(i int, at Time, shared bool, id, kind, arg int) {
	fn := w.event(i, id, kind, arg, shared)
	if shared {
		w.shared[i] = w.engine(i).ScheduleShared(at, fn)
	} else {
		w.engine(i).Schedule(at, fn)
	}
}

// event is event id's callback on engine i. kind 1 chains a follow-up on the
// same engine (possibly at the same instant); kind 2 on the coordinator
// schedules into member arg, elsewhere it chains; kind 3 on the coordinator
// schedules into every member at its own instant; kind 4 on the coordinator
// schedules a shared event into member arg, on a member it chains a shared
// follow-up and a plain one, and is itself scheduled shared; kind 5 on a
// member cancels the last shared event the member scheduled. Each checks that
// its own mirror equals its clock, a coordinator event that every member
// is at its instant, and an event fired outside a window that the gate is
// shut.
func (w *driveWorld) event(i, id, kind, arg int, shared bool) func(Time) {
	return func(now Time) {
		n, child := len(w.ds), 1000*(id+1)
		if i < n {
			d := w.ds[i]
			if d.Now() != d.eng.Now() || d.Now() != now {
				w.t.Fatalf("event %d on %d at %v: mirror %v, clock %v", id, i, now, d.Now(), d.eng.Now())
			}
			if shared && d.gate.Open() {
				w.t.Fatalf("shared event %d on %d at %v fired in a window", id, i, now)
			}
		} else {
			for j, d := range w.ds {
				if d.Now() != now || d.eng.Now() != now || d.gate.Open() {
					w.t.Fatalf("coordinator event %d at %v: member %d mirror %v, clock %v", id, now, j, d.Now(), d.eng.Now())
				}
			}
		}
		w.write(i, id, now)
		switch {
		case kind == 1 || kind == 2 && i < n:
			w.schedule(i, now+Time(arg%3)*driveTick, false, child, 0, 0)
		case kind == 2:
			w.schedule(arg%n, now+Time(arg/n%3)*driveTick, false, child, 1, arg)
		case kind == 3 && i == n:
			for j := range w.ds {
				w.schedule(j, now, false, child+j, 0, 0)
			}
		case kind == 4 && i == n:
			w.schedule(arg%n, now+Time(arg/n%3)*driveTick, true, child, 4, arg/3)
		case kind == 4 && arg > 0:
			w.schedule(i, now+Time(arg%3)*driveTick, true, child, 4, arg/3)
			w.schedule(i, now+Time(arg/3%2)*driveTick, false, child+1, 1, arg)
		case kind == 5 && i < n:
			w.ds[i].eng.Cancel(w.shared[i])
		}
	}
}

// decodeDrive builds a world from data — member count, two horizons, then
// one (engine, time, kind, arg) quadruple per initial event.
func decodeDrive(t *testing.T, data []byte) (*driveWorld, Time, Time) {
	for len(data) < 3 {
		data = append(data, 0)
	}
	w := &driveWorld{t: t, coord: NewEngine()}
	engs := make([]*Engine, 1+int(data[0]%4))
	for i := range engs {
		engs[i] = NewEngine()
	}
	w.ds, w.bufs, w.shared = NewDomains(engs), make([][][3]int64, len(engs)), make([]*Event, len(engs))
	w.ds.Gate().OnFlush(w.flush)
	until := Time(data[1]%80) * Second
	for k, op := 0, data[3:]; len(op) >= 4; k, op = k+1, op[4:] {
		i, kind := int(op[0])%(len(w.ds)+1), int(op[2]%6)
		w.schedule(i, Time(op[1]%64)*driveTick, kind == 4 && i < len(w.ds), k, kind, int(op[3]))
	}
	return w, until, until + Time(data[2]%40)*driveTick
}

// naiveDrive is Drive's oracle: the least (time, member) by linear scan, the
// coordinator after the members at equal times, every member's clock moved
// to t before a coordinator event at t; no window ever opens, so every write
// goes straight to the log.
func naiveDrive(ds Domains, coord *Engine, until Time) {
	for {
		best, bestAt := -1, Time(0)
		for i, d := range ds {
			if at, ok := d.eng.NextAt(); ok && at <= until && (best < 0 || at < bestAt) {
				best, bestAt = i, at
			}
		}
		cAt, cOK := coord.NextAt()
		if cOK = cOK && cAt <= until; best >= 0 && (!cOK || bestAt <= cAt) {
			ds[best].now.Store(int64(bestAt))
			ds[best].eng.Step()
			continue
		} else if !cOK {
			break
		}
		ds.moveTo(cAt)
		coord.Step()
	}
	ds.moveTo(until)
	coord.Run(until)
}

func FuzzDomainsDrive(f *testing.F) {
	// Two members and a coordinator tied at 5 ticks, a coordinator event that
	// schedules into member 1 at its own instant, and a chain at 0 s delay.
	f.Add([]byte{1, 30, 10, 0, 5, 0, 0, 1, 5, 1, 0, 2, 5, 2, 1, 2, 5, 3, 0, 0, 9, 1, 3})
	// Three members with shared chains tied at 4 ticks against plain events on
	// both sides of them, and a coordinator event scheduling a shared one.
	f.Add([]byte{2, 40, 10, 1, 4, 4, 7, 0, 4, 1, 1, 2, 4, 1, 0, 1, 4, 4, 5, 3, 4, 4, 8, 2, 4, 0, 0, 3, 6, 4, 4})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		data := make([]byte, 3+4*(1+rng.Intn(40)))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, until, drain := decodeDrive(t, data[:min(len(data), 3+4*200)])
		want, _, _ := decodeDrive(t, data[:min(len(data), 3+4*200)])
		for _, h := range []Time{until, drain} {
			got.ds.Drive(got.coord, h)
			naiveDrive(want.ds, want.coord, h)
			if !slices.Equal(got.log, want.log) {
				t.Fatalf("through %v: Drive fired\n %v\nthe oracle\n %v", h, got.log, want.log)
			}
			for i, d := range got.ds {
				if d.Now() != h || d.eng.Now() != h {
					t.Fatalf("through %v: member %d mirror %v, clock %v", h, i, d.Now(), d.eng.Now())
				}
			}
			if got.coord.Now() != h {
				t.Fatalf("through %v: coordinator at %v", h, got.coord.Now())
			}
		}
	})
}

func TestDriveRefusesSharedFromPlain(t *testing.T) {
	ds := NewDomains([]*Engine{NewEngine(), NewEngine()})
	eng := ds[0].eng
	eng.Schedule(Second, func(Time) { eng.ScheduleShared(2*Second, func(Time) {}) })
	defer func() {
		if recover() == nil {
			t.Fatal("a plain event scheduled a shared one inside a window without a panic")
		}
	}()
	ds.Drive(nil, Hour)
}

func TestGateGuard(t *testing.T) {
	ds := NewDomains([]*Engine{NewEngine(), NewEngine()})
	g := ds.Gate()
	g.Guard("pool") // shut: no panic
	var inWindow, inShared bool
	ds[0].eng.ScheduleShared(Second, func(Time) { inShared = g.Open() })
	ds[1].eng.Schedule(Second, func(Time) { inWindow = g.Open() })
	ds.Drive(nil, Hour)
	if !inWindow || inShared {
		t.Fatalf("gate open in a plain event %v, in a shared one %v", inWindow, inShared)
	}
	ds[1].eng.Schedule(2*Hour, func(Time) { g.Guard("pool") })
	defer func() {
		if recover() == nil {
			t.Fatal("Guard inside a window did not panic")
		}
	}()
	ds.Drive(nil, 3*Hour)
}

// TestDriveAllocs drives two members and a coordinator through barriers every
// sim-minute — member 0's shared event at :00, member 1's at :45, the
// coordinator's at :50 — with one plain event on member 1 at :30, so each
// window has at most one busy member: twice the barriers must cost no more
// allocations.
func TestDriveAllocs(t *testing.T) {
	drive := func(minutes Time) func() {
		return func() {
			engs, coord := []*Engine{NewEngine(), NewEngine()}, NewEngine()
			every := func(eng *Engine, ev *Event, first Time) {
				var tick func(Time)
				tick = func(now Time) { eng.Reschedule(ev, now+Minute, tick) }
				eng.Reschedule(ev, first, tick)
			}
			every(engs[0], &Event{shared: true}, Minute)
			every(engs[1], &Event{shared: true}, Minute+45*Second)
			every(engs[1], new(Event), Minute+30*Second)
			every(coord, new(Event), Minute+50*Second)
			NewDomains(engs).Drive(coord, minutes*Minute)
		}
	}
	if n, n2 := testing.AllocsPerRun(5, drive(500)), testing.AllocsPerRun(5, drive(1000)); n != n2 {
		t.Errorf("500 sim-minutes of barriers allocate %v, 1000 allocate %v", n, n2)
	}
}

// BenchmarkDomainsDrive drives 13 synthetic members through a sim-week:
// member i fires an event every 7(i+1) s, each doing a few hundred
// nanoseconds of arithmetic and re-keying its one event, so the largest
// member has about a third of the events — the skew of a replayed plan's
// groups — and nothing allocates per event. Run it at -cpu 1,2: ns/event is
// the wall time per member event.
func BenchmarkDomainsDrive(b *testing.B) {
	const members, horizon = 13, 7 * Day
	var events uint64
	for n := 0; n < b.N; n++ {
		engs := make([]*Engine, members)
		for i := range engs {
			eng := NewEngine()
			every := Time(7*(i+1)) * Second
			var ev Event
			var tick func(Time)
			tick = func(now Time) {
				x := uint64(now) | 1
				for k := 0; k < 256; k++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				eng.Reschedule(&ev, now+every+Time(x&1), tick)
			}
			eng.Reschedule(&ev, every, tick)
			engs[i] = eng
		}
		NewDomains(engs).Drive(nil, horizon)
		for _, eng := range engs {
			events += eng.Steps()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
