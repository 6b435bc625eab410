package advisor

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/epoch"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// burstyActivity builds 28 days of light office activity plus heavy bursts
// every periodDays.
func burstyActivity(periodDays int) epoch.Activity {
	var ivs []epoch.Interval
	for d := 0; d < 28; d++ {
		day := sim.Time(d) * sim.Day
		if d%7 >= 5 {
			continue // weekends off
		}
		// Light baseline: two 20-minute busy stretches.
		ivs = append(ivs,
			epoch.Interval{Start: day + 9*sim.Hour, End: day + 9*sim.Hour + 20*sim.Minute},
			epoch.Interval{Start: day + 14*sim.Hour, End: day + 14*sim.Hour + 20*sim.Minute})
		if periodDays > 0 && d%periodDays == 3 { // a Thursday, never a weekend
			// Burst: 10 hours of near-continuous reporting.
			ivs = append(ivs, epoch.Interval{Start: day + 8*sim.Hour, End: day + 18*sim.Hour})
		}
	}
	return epoch.Normalize(ivs)
}

func TestDetectBurstsPeriodic(t *testing.T) {
	p := DetectBursts(burstyActivity(7), 28*sim.Day)
	if len(p.BurstDays) < 3 {
		t.Fatalf("burst days = %v, want the weekly bursts", p.BurstDays)
	}
	if !p.Periodic {
		t.Fatalf("weekly bursts not classified periodic: %+v", p)
	}
	if p.PeriodDays != 7 {
		t.Errorf("period = %d days, want 7", p.PeriodDays)
	}
	if !p.PredictsBurstWithin(28, 7) {
		t.Error("next weekly burst not predicted within a week")
	}
}

func TestDetectBurstsNoneOnRegularTenant(t *testing.T) {
	p := DetectBursts(burstyActivity(0), 28*sim.Day)
	if len(p.BurstDays) != 0 || p.Periodic {
		t.Errorf("regular office tenant flagged bursty: %+v", p)
	}
	if p.PredictsBurstWithin(28, 7) {
		t.Error("regular tenant predicted to burst")
	}
}

func TestDetectBurstsSingleSpikeNotPeriodic(t *testing.T) {
	var ivs []epoch.Interval
	for d := 0; d < 28; d++ {
		day := sim.Time(d) * sim.Day
		ivs = append(ivs, epoch.Interval{Start: day + 9*sim.Hour, End: day + 9*sim.Hour + 15*sim.Minute})
	}
	// One big one-off spike.
	ivs = append(ivs, epoch.Interval{Start: 10*sim.Day + 8*sim.Hour, End: 10*sim.Day + 18*sim.Hour})
	p := DetectBursts(epoch.Normalize(ivs), 28*sim.Day)
	if p.Periodic {
		t.Errorf("one-off spike classified periodic: %+v", p)
	}
	if len(p.BurstDays) != 1 || p.BurstDays[0] != 10 {
		t.Errorf("burst days = %v, want [10]", p.BurstDays)
	}
}

func TestDetectBurstsDegenerate(t *testing.T) {
	if p := DetectBursts(nil, 0); len(p.DailyRatio) != 0 {
		t.Error("zero horizon not degenerate")
	}
	if p := DetectBursts(nil, 5*sim.Day); len(p.BurstDays) != 0 {
		t.Error("idle tenant has bursts")
	}
}

func TestPredictRollsForward(t *testing.T) {
	// A profile whose "next" burst is in the past rolls forward by periods.
	p := BurstProfile{Periodic: true, PeriodDays: 7, NextBurstDay: 10}
	if !p.PredictsBurstWithin(28, 7) {
		t.Error("rolled-forward burst (day 31) not within [28, 35)")
	}
	if p.PredictsBurstWithin(28, 2) {
		t.Error("burst on day 31 reported within [28, 30)")
	}
}

// TestPlanExcludesBurstyTenant wires detection through the advisor.
func TestPlanExcludesBurstyTenant(t *testing.T) {
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	logs := officeLogs(6, 2, 6)
	logs = append(logs, mkLog("fiscal", 2, burstyActivity(7)))
	plan, err := a.Plan(logs, 28*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range plan.Excluded {
		if e.TenantID == "fiscal" {
			found = true
		}
	}
	if !found {
		t.Errorf("bursty tenant not excluded; exclusions: %+v", plan.Excluded)
	}
}

// detectBurstsByClip is DetectBursts as it was defined before it read the log
// in one pass: one Clip of the whole activity per day. It is the oracle of
// TestDetectBurstsMatchesPerDayClip.
func detectBurstsByClip(act epoch.Activity, horizon sim.Time) BurstProfile {
	days := int(horizon / sim.Day)
	if days < 1 {
		return BurstProfile{}
	}
	p := BurstProfile{DailyRatio: make([]float64, days)}
	for d := 0; d < days; d++ {
		from := sim.Time(d) * sim.Day
		p.DailyRatio[d] = act.Clip(from, from+sim.Day).Total().Seconds() / sim.Day.Seconds()
	}
	var active []float64
	for _, r := range p.DailyRatio {
		if r > 0 {
			active = append(active, r)
		}
	}
	if len(active) == 0 {
		return p
	}
	sort.Float64s(active)
	median := active[len(active)/2]
	for d, r := range p.DailyRatio {
		if r >= burstMinRatio && r > BurstFactor*median {
			p.BurstDays = append(p.BurstDays, d)
		}
	}
	if len(p.BurstDays) >= 2 {
		gaps := make([]int, 0, len(p.BurstDays)-1)
		for i := 1; i < len(p.BurstDays); i++ {
			gaps = append(gaps, p.BurstDays[i]-p.BurstDays[i-1])
		}
		period := gaps[0]
		regular := period > 0
		for _, g := range gaps[1:] {
			if g < period-periodJitterDays || g > period+periodJitterDays {
				regular = false
				break
			}
		}
		if regular {
			p.Periodic = true
			p.PeriodDays = period
			p.NextBurstDay = p.BurstDays[len(p.BurstDays)-1] + period
		}
	}
	return p
}

// TestDetectBurstsMatchesPerDayClip: the single pass gives bit for bit the
// profile the per-day clips gave — the per-day sums are integer nanoseconds
// either way — on composed logs, on the bursty fixtures and on intervals laid
// across every edge a day or the horizon has.
func TestDetectBurstsMatchesPerDayClip(t *testing.T) {
	type tc struct {
		name    string
		act     epoch.Activity
		horizon sim.Time
	}
	cases := []tc{
		{"empty activity", nil, 7 * sim.Day},
		{"horizon under a day", epoch.Activity{{Start: sim.Hour, End: 2 * sim.Hour}}, 23 * sim.Hour},
		{"crossing midnight", epoch.Activity{{Start: sim.Day - sim.Hour, End: sim.Day + 2*sim.Hour}}, 3 * sim.Day},
		{"ending on midnight", epoch.Activity{{Start: sim.Day - sim.Hour, End: sim.Day}, {Start: 2 * sim.Day, End: 2*sim.Day + 1}}, 3 * sim.Day},
		{"spanning several days", epoch.Activity{{Start: 10 * sim.Hour, End: 4*sim.Day + 7*sim.Hour}}, 7 * sim.Day},
		{"starting before 0", epoch.Activity{{Start: -30 * sim.Hour, End: 5 * sim.Hour}, {Start: 6 * sim.Hour, End: 7 * sim.Hour}}, 2 * sim.Day},
		{"wholly before 0", epoch.Activity{{Start: -3 * sim.Hour, End: -sim.Hour}}, 2 * sim.Day},
		{"ending past the horizon", epoch.Activity{{Start: sim.Day + 20*sim.Hour, End: 9 * sim.Day}}, 3 * sim.Day},
		{"wholly past the horizon", epoch.Activity{{Start: 4 * sim.Day, End: 5 * sim.Day}}, 3 * sim.Day},
		{"horizon of three and a half days", epoch.Activity{{Start: 2*sim.Day + 20*sim.Hour, End: 3*sim.Day + 6*sim.Hour}, {Start: 3*sim.Day + 8*sim.Hour, End: 3*sim.Day + 9*sim.Hour}}, 3*sim.Day + 12*sim.Hour},
		{"always active", epoch.Activity{{Start: 0, End: 28 * sim.Day}}, 28 * sim.Day},
		{"weekly bursts", burstyActivity(7), 28 * sim.Day},
		{"fortnightly bursts", burstyActivity(14), 28 * sim.Day},
		{"weekly bursts, short history", burstyActivity(7), 17*sim.Day + 5*sim.Hour},
		{"no bursts", burstyActivity(0), 28 * sim.Day},
	}
	cat := queries.Default()
	lib, err := workload.BuildLibrary(cat, tenant.DefaultSizes, 4, 71)
	if err != nil {
		t.Fatal(err)
	}
	logs, err := workload.ComposeVariant(lib, cat, 60, 0.8, tenant.DefaultSizes, workload.VariantDefault, 14, 72)
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range logs {
		cases = append(cases,
			tc{"composed log " + tl.Tenant.ID, tl.Activity, 14 * sim.Day},
			tc{"composed log " + tl.Tenant.ID + ", shifted and cut", tl.Activity.Shift(-36*sim.Hour - 7*sim.Minute), 9*sim.Day + sim.Hour})
	}
	bursty := 0
	for _, c := range cases {
		got, want := DetectBursts(c.act, c.horizon), detectBurstsByClip(c.act, c.horizon)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, want)
		}
		if want.Periodic {
			bursty++
		}
	}
	if bursty < 3 {
		t.Errorf("only %d of the cases are periodic", bursty)
	}
}

// BenchmarkDetectBursts500 is burst detection over one benchmark population:
// the 500 tenants and 7 days of internal/grouping's composed benchmarks.
func BenchmarkDetectBursts500(b *testing.B) {
	cat := queries.Default()
	lib, err := workload.BuildLibrary(cat, tenant.DefaultSizes, 10, 40)
	if err != nil {
		b.Fatal(err)
	}
	logs, err := workload.ComposeVariant(lib, cat, 500, 0.8, tenant.DefaultSizes, workload.VariantDefault, 7, 41)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tl := range logs {
			if len(DetectBursts(tl.Activity, 7*sim.Day).DailyRatio) != 7 {
				b.Fatal("no daily profile")
			}
		}
	}
}
