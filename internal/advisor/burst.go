package advisor

import (
	"sort"

	"repro/internal/epoch"
	"repro/internal/sim"
)

// Tenants with regular bursts in activity — "there are usually bursts near
// the end of a fiscal year" (§5.1) — are identified from their history and
// excluded from consolidation *before* the next burst arrives: a burst
// inside a consolidated group would blow its TTP and force reactive scaling
// at the worst moment.

// BurstProfile is the periodic-burst analysis of one tenant's history.
type BurstProfile struct {
	// DailyRatio is the tenant's active-time fraction per day.
	DailyRatio []float64
	// BurstDays are the days whose activity exceeds BurstFactor × the
	// tenant's median active day.
	BurstDays []int
	// Periodic reports whether the burst days recur at a near-constant
	// interval.
	Periodic bool
	// PeriodDays is the recurrence interval when Periodic.
	PeriodDays int
	// NextBurstDay predicts the next burst (day index ≥ len(DailyRatio))
	// when Periodic.
	NextBurstDay int
}

// Burst detection parameters.
const (
	// BurstFactor: a day is a burst when its active ratio exceeds this
	// multiple of the tenant's median active day.
	BurstFactor = 3.0
	// burstMinRatio filters noise: a burst day must itself be at least this
	// active.
	burstMinRatio = 0.25
	// periodJitterDays tolerates scheduling slack between recurrences.
	periodJitterDays = 1
)

// DetectBursts analyzes a tenant's activity over [0, horizon) at one-day
// resolution.
func DetectBursts(act epoch.Activity, horizon sim.Time) BurstProfile {
	days := int(horizon / sim.Day)
	if days < 1 {
		return BurstProfile{}
	}
	p := BurstProfile{DailyRatio: make([]float64, days)}
	// One pass over the log: each interval, clipped to the whole days of the
	// horizon, is split at the midnights it crosses.
	busy := make([]sim.Time, days)
	end := sim.Time(days) * sim.Day
	for _, iv := range act {
		for s, e := max(iv.Start, 0), min(iv.End, end); s < e; {
			d := s / sim.Day
			next := min((d+1)*sim.Day, e)
			busy[d] += next - s
			s = next
		}
	}
	for d, t := range busy {
		p.DailyRatio[d] = t.Seconds() / sim.Day.Seconds()
	}
	// Median over active days only (weekends/holidays would otherwise drag
	// the baseline to zero and make every workday look like a burst).
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
	// Periodicity: at least two bursts with near-equal spacing.
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

// PredictsBurstWithin reports whether the profile predicts a burst within
// the next windowDays after the history ends.
func (p BurstProfile) PredictsBurstWithin(historyDays, windowDays int) bool {
	if !p.Periodic {
		return false
	}
	next := p.NextBurstDay
	for next < historyDays { // roll forward if the "next" burst is stale
		next += p.PeriodDays
	}
	return next < historyDays+windowDays
}
