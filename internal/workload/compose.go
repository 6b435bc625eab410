package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/epoch"
	"repro/internal/par"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// MonitorEpoch is the Tenant Activity Monitor's reporting granularity for
// the *active tenant ratio* statistic: a tenant counts as active in a
// reporting interval if any of its queries ran during it. The paper quotes
// ratios of 8.9–12% (11.9% at defaults) from its monitor; with per-minute
// reporting our generated populations read the same (≈11%), while the
// instantaneous (10 s epoch) ratio is ≈3% — queries last seconds, think
// times minutes. Grouping always uses the fine epoch grid; this constant
// only standardizes the reported statistic.
const MonitorEpoch = 60 * sim.Second

// ComposeConfig controls step 2 of log generation (§7.1): how per-tenant
// 30-day activity logs are assembled from the step-1 session library.
type ComposeConfig struct {
	// Days is the log horizon in days (paper: 30). Day 0 is a Monday.
	Days int
	// Lunch inserts the two-hour lunch break between the morning and
	// afternoon sessions. Disabling it is the paper's Fig 7.6 modification
	// (2)/(3) that raises the active tenant ratio.
	Lunch bool
	// Holidays is the number of weekday public holidays within the horizon
	// (paper: 2). Holidays are random weekdays, shared by all tenants in the
	// same time zone.
	Holidays int
	// Seed drives all randomness of the composition.
	Seed int64
}

// DefaultComposeConfig returns the paper's defaults.
func DefaultComposeConfig(seed int64) ComposeConfig {
	return ComposeConfig{Days: 30, Lunch: true, Holidays: 2, Seed: seed}
}

// Horizon returns the total virtual-time span of the composed logs.
func (c ComposeConfig) Horizon() sim.Time {
	return sim.Time(c.Days) * sim.Day
}

// SessionRef schedules one session-log template at an absolute start time.
type SessionRef struct {
	Start sim.Time
	Log   *SessionLog
}

// TenantLog is a tenant's composed multi-day activity log.
type TenantLog struct {
	Tenant *tenant.Tenant
	// Sessions are the scheduled session templates, in start order. The
	// runtime simulator materializes query submissions from these.
	Sessions []SessionRef
	// Activity is the merged interval set over [0, Horizon) during which
	// the tenant has at least one query executing.
	Activity epoch.Activity
}

// Compose builds the multi-tenant activity logs (§7.1 step 2). Each tenant
// schedules three sessions per working day at its zone offset O: morning
// office hours at O, afternoon at O+3(+2 with lunch), and report
// generation / remote-office activity 9 hours after the afternoon session
// begins. Weekends (two days in seven) and per-zone holidays are inactive.
// The tenants' activity is merged on GOMAXPROCS workers once every draw is
// made.
func Compose(lib *Library, tenants []*tenant.Tenant, cfg ComposeConfig) ([]*TenantLog, error) {
	if cfg.Days < 1 {
		return nil, fmt.Errorf("workload: %d-day horizon", cfg.Days)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	horizon := cfg.Horizon()

	// Pre-draw holiday weekdays per time zone: "that two days are randomly
	// chosen, but they are the same for the tenants in the same time zone".
	var weekdays []int
	for d := 0; d < cfg.Days; d++ {
		if d%7 < 5 {
			weekdays = append(weekdays, d)
		}
	}
	holidayByZone := make(map[int]map[int]bool)
	zones := map[int]bool{}
	for _, t := range tenants {
		zones[t.ZoneOffsetHours] = true
	}
	zoneList := make([]int, 0, len(zones))
	for z := range zones {
		zoneList = append(zoneList, z)
	}
	sort.Ints(zoneList)
	for _, z := range zoneList {
		h := make(map[int]bool)
		perm := rng.Perm(len(weekdays))
		for i := 0; i < cfg.Holidays && i < len(weekdays); i++ {
			h[weekdays[perm[i]]] = true
		}
		holidayByZone[z] = h
	}

	// Daily session-start offsets relative to the zone offset.
	afternoon := 3 * sim.Hour
	if cfg.Lunch {
		afternoon += 2 * sim.Hour
	}
	report := afternoon + 9*sim.Hour

	// Every draw first, serially, in one order: a session picked for a day
	// whose start falls past the horizon still takes its draw.
	out := make([]*TenantLog, len(tenants))
	for k, tn := range tenants {
		tl := &TenantLog{Tenant: tn, Sessions: make([]SessionRef, 0, 3*len(weekdays))}
		holidays := holidayByZone[tn.ZoneOffsetHours]
		base := sim.Time(tn.ZoneOffsetHours) * sim.Hour
		for d := 0; d < cfg.Days; d++ {
			if d%7 >= 5 || holidays[d] {
				continue // weekend or public holiday
			}
			dayStart := sim.Time(d)*sim.Day + base
			for _, off := range []sim.Time{0, afternoon, report} {
				s, err := lib.Pick(rng, tn.Nodes, tn.Suite)
				if err != nil {
					return nil, err
				}
				if start := dayStart + off; start < horizon {
					tl.Sessions = append(tl.Sessions, SessionRef{Start: start, Log: s})
				}
			}
		}
		out[k] = tl
	}
	// Then each tenant's activity on every core, each worker collecting the
	// shifted, clipped intervals into one buffer it reuses.
	par.Each(0, len(out), func() *[]epoch.Interval { return new([]epoch.Interval) }, func(buf *[]epoch.Interval, k int) {
		tl, ivs := out[k], (*buf)[:0]
		for _, ref := range tl.Sessions {
			for _, iv := range ref.Log.Activity {
				if ref.Start+iv.Start >= horizon {
					break
				}
				ivs = append(ivs, epoch.Interval{Start: ref.Start + iv.Start, End: min(ref.Start+iv.End, horizon)})
			}
		}
		*buf = ivs
		tl.Activity = epoch.Normalize(ivs)
	})
	return out, nil
}

// QueryEvent is one materialized query submission for runtime replay.
type QueryEvent struct {
	At      sim.Time
	Tenant  string
	ClassID string
	User    int
	Batch   int
	// SLATarget is the query's before-consolidation latency: its duration
	// as recorded on the tenant's own requested-size MPPDB during step-1
	// collection, *including* contention from the tenant's own concurrent
	// queries ("load balancing within a tenant is not TDD's but the
	// tenant's own issue", §4.4).
	SLATarget sim.Time
}

// Materialize expands a tenant log into the individual query submissions of
// the window [from, to), in time order. Replay does not go through it: it
// pulls the same sequence from a Stream without building the list.
func (tl *TenantLog) Materialize(from, to sim.Time) []QueryEvent {
	return MaterializeAll([]*TenantLog{tl}, from, to)
}

// MaterializeAll merges the query events of several tenant logs in time
// order (ties in Stream order) by draining a Stream over them.
func MaterializeAll(logs []*TenantLog, from, to sim.Time) []QueryEvent {
	s, _ := NewStream(nil, logs, from, to) // no catalog, nothing to fail
	out := make([]QueryEvent, 0, s.Len())
	for a, ok := s.Next(); ok; a, ok = s.Next() {
		out = append(out, a.QueryEvent)
	}
	return out
}

// Stats summarizes a composed tenant population's activity.
type Stats struct {
	// Tenants is the population size.
	Tenants int
	// MeanActiveRatio is the average, over epochs in which at least one
	// tenant is active, of the fraction of tenants active in that epoch —
	// the paper's "active tenant ratio" (11.9% under default parameters).
	MeanActiveRatio float64
	// MaxActive is the peak number of concurrently active tenants.
	MaxActive int
	// PerTenantActiveRatio is the mean fraction of the horizon each tenant
	// is active.
	PerTenantActiveRatio float64
}

// ComputeStats derives population activity statistics on the given grid.
func ComputeStats(logs []*TenantLog, grid epoch.Grid) Stats {
	cs := epoch.NewCountSet(grid.D)
	var perTenant float64
	horizon := sim.Time(grid.D) * grid.Width
	members := make([]epoch.Spans, len(logs))
	for i, tl := range logs {
		members[i] = grid.Quantize(tl.Activity)
		perTenant += tl.Activity.Ratio(horizon)
	}
	// One sweep: adding tenant by tenant re-merges a count function that
	// grows towards one segment per epoch, quadratic in the population.
	cs.Fill(members)
	hist := cs.Hist()
	var busyEpochs, tenantEpochs int64
	for c := 1; c < len(hist); c++ {
		busyEpochs += hist[c]
		tenantEpochs += int64(c) * hist[c]
	}
	st := Stats{Tenants: len(logs), MaxActive: cs.MaxCount()}
	if busyEpochs > 0 && len(logs) > 0 {
		st.MeanActiveRatio = float64(tenantEpochs) / float64(busyEpochs) / float64(len(logs))
	}
	if len(logs) > 0 {
		st.PerTenantActiveRatio = perTenant / float64(len(logs))
	}
	return st
}

// HighActivityVariant describes the Fig 7.6 composition modifications that
// raise the active tenant ratio.
type HighActivityVariant int

const (
	// VariantDefault is the unmodified composition (≈11.9% in the paper).
	VariantDefault HighActivityVariant = iota
	// VariantNorthAmerica restricts tenants to the +0/+3 offsets
	// (≈25.1%).
	VariantNorthAmerica
	// VariantNorthAmericaNoLunch additionally removes the lunch break
	// (≈30.7%).
	VariantNorthAmericaNoLunch
	// VariantSingleZoneNoLunch puts every tenant at +0 with no lunch
	// (≈34.4%).
	VariantSingleZoneNoLunch
)

// String names the variant as in §7.4.
func (v HighActivityVariant) String() string {
	switch v {
	case VariantDefault:
		return "default"
	case VariantNorthAmerica:
		return "north-america"
	case VariantNorthAmericaNoLunch:
		return "north-america-no-lunch"
	case VariantSingleZoneNoLunch:
		return "single-zone-no-lunch"
	default:
		return fmt.Sprintf("HighActivityVariant(%d)", int(v))
	}
}

// Offsets returns the allowed time-zone offsets for the variant.
func (v HighActivityVariant) Offsets() []int {
	switch v {
	case VariantNorthAmerica, VariantNorthAmericaNoLunch:
		return []int{0, 3}
	case VariantSingleZoneNoLunch:
		return []int{0}
	default:
		return tenant.ZoneOffsets
	}
}

// Lunch reports whether the variant keeps the lunch break.
func (v HighActivityVariant) Lunch() bool {
	return v == VariantDefault || v == VariantNorthAmerica
}

// ComposeVariant draws a tenant population and composes logs under one of
// the Fig 7.6 variants.
func ComposeVariant(lib *Library, cat *queries.Catalog, n int, theta float64, sizes []int,
	v HighActivityVariant, days int, seed int64) ([]*TenantLog, error) {
	_ = cat // reserved: variants may later reweight suites
	rng := rand.New(rand.NewSource(seed))
	pop, err := tenant.Population(rng, n, theta, sizes, v.Offsets())
	if err != nil {
		return nil, err
	}
	cfg := ComposeConfig{Days: days, Lunch: v.Lunch(), Holidays: 2, Seed: seed + 1}
	return Compose(lib, pop, cfg)
}
