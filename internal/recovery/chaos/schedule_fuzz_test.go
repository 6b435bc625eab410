package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// naiveSlowdownError is ValidateSlowdowns' contract stated directly: the
// first entry, in schedule order, with a bad duration, horizon, factor or
// profile shape; failing that, the lowest-indexed entry that starts inside
// another entry on its (group, instance) ahead of it in (start, index)
// order. It returns the entry's index and reason, or -1.
func naiveSlowdownError(es []Slowdown, from, to sim.Time) (int, string) {
	for i, e := range es {
		switch {
		case e.Duration <= 0:
			return i, "zero_duration"
		case e.At < from || e.At+sim.Time(e.Duration) > to:
			return i, "out_of_horizon"
		case e.Factor <= 0 || e.Factor >= 1:
			return i, "bad_factor"
		case e.Profile == ProfileGradual:
			if e.Steps < 1 {
				return i, "bad_steps"
			}
		case e.Profile == ProfileFlapping:
			if e.Period <= 0 || e.Period >= e.Duration {
				return i, "bad_period"
			}
		case e.Profile != ProfileStuck:
			return i, "bad_profile"
		}
	}
	for i, e := range es {
		for j, o := range es {
			ahead := o.At < e.At || o.At == e.At && j < i
			if j != i && o.Group == e.Group && o.Instance == e.Instance && ahead && e.At < o.At+sim.Time(o.Duration) {
				return i, "overlap"
			}
		}
	}
	return -1, ""
}

// naiveOutageError is ValidateOutages' contract stated directly, as the
// error text it must return ("" for a valid schedule).
func naiveOutageError(sched []DomainOutage, domains int, from, to sim.Time) string {
	for i, o := range sched {
		switch {
		case o.Domain < 0 || o.Domain >= domains:
			return fmt.Sprintf("domainfail: outage %d targets domain %d of %d", i, o.Domain, domains)
		case o.Duration <= 0:
			return fmt.Sprintf("domainfail: outage %d has duration %v", i, o.Duration)
		case o.At < from || o.At >= to:
			return fmt.Sprintf("domainfail: outage %d at %v outside [%v,%v)", i, o.At, from, to)
		}
	}
	for i, o := range sched {
		for j, p := range sched {
			ahead := p.At < o.At || p.At == o.At && j < i
			if j != i && p.Domain == o.Domain && ahead && o.At < p.At+sim.Time(p.Duration) {
				return fmt.Sprintf("domainfail: domain %d outages overlap at %v", o.Domain, o.At)
			}
		}
	}
	return ""
}

// FuzzFaultSchedules checks the schedule validators against naive O(n²)
// oracles — horizon, factor, profile shape and same-target overlap, on
// schedules of up to a dozen entries over two groups of three instances
// and three domains, in minutes — and checks that BuildSlowdowns and
// BuildOutages keep their promise: for any seed, instance or domain count
// and window of at least a minute per episode, what they derive validates.
func FuzzFaultSchedules(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		b := make([]byte, 8+6*int(seed%12))
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	profiles := []SlowProfile{ProfileStuck, ProfileGradual, ProfileFlapping, "meltdown"}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 8 {
			return
		}
		mins := func(b byte, lo int) sim.Time { return sim.Time(int(b)+lo) * sim.Minute }
		from := mins(in[0]%16, -4)
		to := from + mins(in[1], -8)

		var slow []Slowdown
		var outages []DomainOutage
		for rest := in[8:]; len(rest) >= 6; rest = rest[6:] {
			e := Slowdown{
				At:       from + mins(rest[0], -16),
				Duration: time.Duration(mins(rest[1]%96, -8)),
				Group:    []string{"TG-0000", "TG-0001"}[rest[2]&1],
				Instance: int(rest[2]>>1) % 3,
				Profile:  profiles[rest[3]%4],
				Factor:   float64(rest[4])/200 - 0.1,
				Steps:    int(rest[3]>>2) % 3,
				Period:   time.Duration(mins(rest[5]%64, -4)),
			}
			slow = append(slow, e)
			outages = append(outages, DomainOutage{At: e.At, Duration: e.Duration, Domain: int(rest[2]>>1)%4 - 1})
			if len(slow) == 12 {
				break
			}
		}
		wantIdx, wantReason := naiveSlowdownError(slow, from, to)
		err := ValidateSlowdowns(slow, from, to)
		var se *ScheduleError
		switch {
		case wantIdx < 0 && err != nil:
			t.Fatalf("ValidateSlowdowns rejected a valid schedule: %v\n%+v", err, slow)
		case wantIdx >= 0 && !errors.As(err, &se):
			t.Fatalf("ValidateSlowdowns: %v, want %s at entry %d\n%+v", err, wantReason, wantIdx, slow)
		case wantIdx >= 0 && (se.Index != wantIdx || se.Reason != wantReason):
			t.Fatalf("ValidateSlowdowns: %s at entry %d, want %s at entry %d\n%+v",
				se.Reason, se.Index, wantReason, wantIdx, slow)
		}
		got := ""
		if err := ValidateOutages(outages, 3, from, to); err != nil {
			got = err.Error()
		}
		if want := naiveOutageError(outages, 3, from, to); got != want {
			t.Fatalf("ValidateOutages: %q, want %q\n%+v", got, want, outages)
		}

		// The builders' promise, for any seed and shape over a window of at
		// least a minute per episode — short windows clamp the derived
		// episodes and outages, windows of days leave them whole.
		seed := int64(in[2])<<8 | int64(in[3])
		w := Window{From: from, To: from + slowEpisodes*sim.Minute + mins(in[1], 0)*sim.Time(1+in[4]%16)}
		derived := BuildSlowdowns("TG-0000", 1+int(in[7]%4), seed, w)
		if err := ValidateSlowdowns(derived, w.From, w.To); err != nil || len(derived) != slowEpisodes {
			t.Fatalf("BuildSlowdowns(%+v) = %d episodes failing validation: %v\n%+v", w, len(derived), err, derived)
		}
		domains := 2 + int(in[7]>>4)%3
		if err := ValidateOutages(BuildOutages(domains, seed, w), domains, w.From, w.To); err != nil {
			t.Fatalf("BuildOutages(%d, %+v) fails validation: %v", domains, w, err)
		}
	})
}
