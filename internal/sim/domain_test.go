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

// driveWorld is FuzzDomainsDrive's input made engines: member domains and a
// coordinator (engine index len(ds)), each event logging (engine, id, time).
type driveWorld struct {
	t     *testing.T
	ds    Domains
	coord *Engine
	log   [][3]int64
}

func (w *driveWorld) engine(i int) *Engine {
	if i == len(w.ds) {
		return w.coord
	}
	return w.ds[i].eng
}

// event is event id's callback on engine i. kind 1 chains a follow-up on the
// same engine (possibly at the same instant); kind 2 on the coordinator
// schedules into member arg, elsewhere it chains; kind 3 on the coordinator
// schedules into every member at its own instant. Each checks that every
// mirror equals its clock, and a coordinator event that no member is ahead.
func (w *driveWorld) event(i, id, kind, arg int) func(Time) {
	return func(now Time) {
		for j, d := range w.ds {
			if d.Now() != d.eng.Now() || i == len(w.ds) && d.eng.Now() != now {
				w.t.Fatalf("event %d on %d at %v: member %d mirror %v, clock %v", id, i, now, j, d.Now(), d.eng.Now())
			}
		}
		w.log = append(w.log, [3]int64{int64(i), int64(id), int64(now)})
		n, child := len(w.ds), 1000*(id+1)
		switch {
		case kind == 1 || kind == 2 && i < n:
			w.engine(i).Schedule(now+Time(arg%3)*Second, w.event(i, child, 0, 0))
		case kind == 2:
			w.ds[arg%n].eng.Schedule(now+Time(arg/n%3)*Second, w.event(arg%n, child, 1, arg))
		case kind == 3 && i == n:
			for j, d := range w.ds {
				d.eng.Schedule(now, w.event(j, child+j, 0, 0))
			}
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
	for i := 0; i <= int(data[0]%4); i++ {
		w.ds = append(w.ds, NewDomain(NewEngine()))
	}
	until := Time(data[1]%80) * Second
	for k, op := 0, data[3:]; len(op) >= 4; k, op = k+1, op[4:] {
		i := int(op[0]) % (len(w.ds) + 1)
		w.engine(i).Schedule(Time(op[1]%64)*Second, w.event(i, k, int(op[2]%4), int(op[3])))
	}
	return w, until, until + Time(data[2]%40)*Second
}

// naiveDrive is Drive's oracle: the least (time, member) by linear scan, the
// coordinator after the members at equal times, every member's clock moved
// to t before a coordinator event at t.
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
	// Two members and a coordinator tied at 5 s, a coordinator event that
	// schedules into member 1 at its own instant, and a chain at 0 s delay.
	f.Add([]byte{1, 30, 10, 0, 5, 0, 0, 1, 5, 1, 0, 2, 5, 2, 1, 2, 5, 3, 0, 0, 9, 1, 3})
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
