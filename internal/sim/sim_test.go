package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0d00:00:00.000"},
		{Second, "0d00:00:01.000"},
		{90*Minute + 250*Millisecond, "0d01:30:00.250"},
		{3*Day + 4*Hour + 5*Minute + 6*Second, "3d04:05:06.000"},
		{-Second, "-0d00:00:01.000"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// sprintfTime is the formatter String used before AppendFormat existed, kept
// as the oracle. It cannot negate math.MinInt64; AppendFormat can, so that
// one value is checked against a literal instead.
func sprintfTime(t Time) string {
	neg := ""
	if t < 0 {
		neg = "-"
		t = -t
	}
	d := t / Day
	t %= Day
	h := t / Hour
	t %= Hour
	m := t / Minute
	t %= Minute
	s := t / Second
	ms := (t % Second) / Millisecond
	return fmt.Sprintf("%s%dd%02d:%02d:%02d.%03d", neg, d, h, m, s, ms)
}

func TestTimeAppendFormatMatchesSprintf(t *testing.T) {
	for _, c := range []Time{
		0, 1, -1, Millisecond - 1, Millisecond, 999*Millisecond + 999_999,
		Second - 1, Minute - 1, Hour - 1, Day - 1, Day, -Day,
		9*Day + 23*Hour + 59*Minute + 59*Second + 999*Millisecond,
		10 * Day, 12*Day + 7*Hour + 5*Millisecond, 365 * Day, -400*Day - 3*Millisecond,
		MaxTime, -MaxTime,
	} {
		if got, want := string(c.AppendFormat(nil)), sprintfTime(c); got != want {
			t.Errorf("Time(%d).AppendFormat = %q, want %q", int64(c), got, want)
		}
	}
	if got, want := Time(math.MinInt64).String(), "-106751d23:47:16.854"; got != want {
		t.Errorf("MinInt64: got %q, want %q", got, want)
	}
	// AppendFormat appends: a prefix survives, and String is the same text.
	if got := string((3 * Second).AppendFormat([]byte("at "))); got != "at 0d00:00:03.000" {
		t.Errorf("append to prefix: got %q", got)
	}
	same := func(v int64) bool {
		t := Time(v)
		return v == math.MinInt64 || (string(t.AppendFormat(nil)) == sprintfTime(t) && t.String() == sprintfTime(t))
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	var buf [32]byte
	if n := testing.AllocsPerRun(100, func() { _ = (12*Day + 5*Millisecond).AppendFormat(buf[:0]) }); n != 0 {
		t.Errorf("AppendFormat allocates %v times", n)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := 5 * Second
	if got := a.Add(2 * time.Second); got != 7*Second {
		t.Errorf("Add: got %v, want %v", got, 7*Second)
	}
	if got := a.Sub(2 * Second); got != 3*time.Second {
		t.Errorf("Sub: got %v, want %v", got, 3*time.Second)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds: got %v, want 1.5", got)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*Second, func(Time) { order = append(order, 3) })
	e.Schedule(1*Second, func(Time) { order = append(order, 1) })
	e.Schedule(2*Second, func(Time) { order = append(order, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3*Second {
		t.Errorf("Now() = %v, want %v", e.Now(), 3*Second)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, func(Time) { order = append(order, i) })
	}
	e.RunAll()
	for i := range order {
		if order[i] != i {
			t.Fatalf("simultaneous events fired out of order: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(Second, func(Time) {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(0, func(Time) {})
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(Second, func(Time) { fired = true })
	e.Cancel(ev)
	if !ev.Canceled() {
		t.Error("event not marked canceled")
	}
	e.RunAll()
	if fired {
		t.Error("canceled event fired")
	}
	// Double cancel and cancel of nil are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelDuringRun(t *testing.T) {
	e := NewEngine()
	var fired []string
	var ev2 *Event
	e.Schedule(Second, func(Time) {
		fired = append(fired, "a")
		e.Cancel(ev2)
	})
	ev2 = e.Schedule(2*Second, func(Time) { fired = append(fired, "b") })
	e.Schedule(3*Second, func(Time) { fired = append(fired, "c") })
	e.RunAll()
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "c" {
		t.Errorf("fired = %v, want [a c]", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for i := 1; i <= 5; i++ {
		at := Time(i) * Second
		e.Schedule(at, func(now Time) { fired = append(fired, now) })
	}
	e.Run(3 * Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3*Second {
		t.Errorf("Now() = %v, want 3s", e.Now())
	}
	// Remaining events still pending.
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	e.Run(10 * Second)
	if len(fired) != 5 {
		t.Errorf("fired %d events after second run, want 5", len(fired))
	}
	if e.Now() != 10*Second {
		t.Errorf("Now() advanced to %v, want 10s (horizon)", e.Now())
	}
}

func TestAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(2*Second, func(now Time) {
		e.After(3*time.Second, func(now Time) { at = now })
	})
	e.RunAll()
	if at != 5*Second {
		t.Errorf("After fired at %v, want 5s", at)
	}
	// Negative delays clamp to "now".
	e2 := NewEngine()
	ran := false
	e2.After(-time.Second, func(Time) { ran = true })
	e2.RunAll()
	if !ran {
		t.Error("negative-delay event did not run")
	}
}

func TestEventsScheduledFromEvents(t *testing.T) {
	// A chain of events each scheduling the next; verifies the heap stays
	// consistent under interleaved push/pop.
	e := NewEngine()
	count := 0
	var step func(now Time)
	step = func(now Time) {
		count++
		if count < 100 {
			e.After(time.Millisecond, step)
		}
	}
	e.Schedule(0, step)
	e.RunAll()
	if count != 100 {
		t.Errorf("chain executed %d steps, want 100", count)
	}
	if e.Now() != 99*Millisecond {
		t.Errorf("Now() = %v, want 99ms", e.Now())
	}
}

// TestRandomizedHeap cross-checks the event queue against a sorted reference
// under a random workload of schedules and cancels.
func TestRandomizedHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	type ref struct {
		at  Time
		seq int
	}
	var want []ref
	var got []ref
	var events []*Event
	seq := 0
	for i := 0; i < 500; i++ {
		at := Time(rng.Intn(1000)) * Millisecond
		seq++
		s := seq
		ev := e.Schedule(at, func(now Time) { got = append(got, ref{now, s}) })
		events = append(events, ev)
		want = append(want, ref{at, s})
	}
	// Cancel a random 20%.
	canceled := map[int]bool{}
	for i := 0; i < 100; i++ {
		k := rng.Intn(len(events))
		e.Cancel(events[k])
		canceled[k] = true
	}
	var filtered []ref
	for i, r := range want {
		if !canceled[i] {
			filtered = append(filtered, r)
		}
	}
	sort.SliceStable(filtered, func(i, j int) bool {
		if filtered[i].at != filtered[j].at {
			return filtered[i].at < filtered[j].at
		}
		return filtered[i].seq < filtered[j].seq
	})
	e.RunAll()
	if len(got) != len(filtered) {
		t.Fatalf("executed %d events, want %d", len(got), len(filtered))
	}
	for i := range got {
		if got[i] != filtered[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], filtered[i])
		}
	}
}

func TestSteps(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i)*Second, func(Time) {})
	}
	e.RunAll()
	if e.Steps() != 7 {
		t.Errorf("Steps() = %d, want 7", e.Steps())
	}
}
