package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// TenantSLO is one tenant's SLA attainment standing.
type TenantSLO struct {
	Tenant string
	// Met and Missed count completed queries by SLA outcome.
	Met, Missed int64
	// Attainment is Met / (Met + Missed).
	Attainment float64
	// WorstNormalized is the largest observed latency / SLA-target ratio.
	WorstNormalized float64
	// OK reports whether Attainment >= the service guarantee P.
	OK bool
}

// SLAAccount accumulates per-tenant SLA hit/miss tallies — the per-query
// accounting primitive that pricing, diagnosis, and the /v1/slo endpoint
// build on.
type SLAAccount struct {
	mu        sync.Mutex
	p         float64
	perTenant map[string]*SLATally
}

// SLATally is one tenant's tallies in an account, updated without its mutex. A
// caller that observes one tenant again and again keeps the handle.
type SLATally struct {
	met, missed atomic.Int64
	worst       atomic.Uint64 // float64 bits
}

// NewSLAAccount builds an account judged against the guarantee p (fraction,
// e.g. 0.999).
func NewSLAAccount(p float64) *SLAAccount {
	return &SLAAccount{p: p, perTenant: make(map[string]*SLATally)}
}

// P returns the guarantee the account judges against.
func (a *SLAAccount) P() float64 { return a.p }

// Tally returns the tenant's tallies, listing the tenant in the account if it
// was not yet.
func (a *SLAAccount) Tally(tenant string) *SLATally {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.perTenant[tenant]
	if c == nil {
		c = &SLATally{}
		a.perTenant[tenant] = c
	}
	return c
}

// Observe records one completed query's SLA outcome.
func (a *SLAAccount) Observe(tenant string, normalized float64, met bool) {
	a.Tally(tenant).Observe(normalized, met)
}

// Observe records one completed query's SLA outcome for the tally's tenant.
func (c *SLATally) Observe(normalized float64, met bool) {
	if met {
		c.met.Add(1)
	} else {
		c.missed.Add(1)
	}
	for {
		old := c.worst.Load()
		if !(normalized > math.Float64frombits(old)) ||
			c.worst.CompareAndSwap(old, math.Float64bits(normalized)) {
			return
		}
	}
}

// Report returns every observed tenant's standing, sorted by tenant ID.
func (a *SLAAccount) Report() []TenantSLO {
	a.mu.Lock()
	out := make([]TenantSLO, 0, len(a.perTenant))
	for t, c := range a.perTenant {
		met, missed := c.met.Load(), c.missed.Load()
		att := 1.0
		if met+missed > 0 {
			att = float64(met) / float64(met+missed)
		}
		out = append(out, TenantSLO{
			Tenant:          t,
			Met:             met,
			Missed:          missed,
			Attainment:      att,
			WorstNormalized: math.Float64frombits(c.worst.Load()),
			OK:              att >= a.p,
		})
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Overall returns the service-wide attainment across all tenants (1 when
// nothing completed yet).
func (a *SLAAccount) Overall() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var met, total int64
	for _, c := range a.perTenant {
		m := c.met.Load()
		met += m
		total += m + c.missed.Load()
	}
	if total == 0 {
		return 1
	}
	return float64(met) / float64(total)
}
