// Package admission implements overload protection for a deployed
// MPPDBaaS: per-tenant contract enforcement (virtual-time token buckets
// derived from each tenant's contracted workload), a bounded per-group
// admission queue with deadline-aware load shedding, and a group-level
// brownout controller that watches the live RT-TTP estimate and recovery
// state and progressively sheds over-contract tenants first, best-effort
// traffic second — never contract-abiding SLA traffic.
//
// Thrifty's consolidation math (§3–§5) is only valid while every tenant
// stays inside the arrival process the advisor grouped it by; this package
// is the enforcement layer that keeps one misbehaving tenant from burning
// its co-tenants' P% guarantee through processor-sharing contention.
//
// Everything runs on the group's virtual clock domain, so admission
// decisions are deterministic: same seed ⇒ byte-identical telemetry.
package admission

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Contract is a tenant's contracted arrival process, as a token bucket:
// the tenant may submit at Rate queries per virtual second sustained, with
// bursts of up to Burst queries above the sustained rate. A zero contract
// (Rate <= 0) is unlimited — the tenant is never throttled, only counted.
type Contract struct {
	// Rate is the sustained admission rate in queries per virtual second
	// of *busy* time (the advisor's arrival model is conditioned on the
	// tenant being active; an idle tenant accrues burst headroom instead).
	Rate float64
	// Burst is the bucket capacity in queries.
	Burst float64
}

// Unlimited reports whether the contract never throttles.
func (c Contract) Unlimited() bool { return c.Rate <= 0 }

// defaultHeadroom is the factor a deployment scales each tenant's logged
// arrival rate and burst by when it derives the tenant's contract.
const defaultHeadroom = 2

// Contract floors: a derived contract never drops below these, so a tenant
// with a sparse log still gets a usable interactive allowance.
const (
	// MinRate is one query per two virtual minutes.
	MinRate = 1.0 / 120
	// MinBurst admits a small batch back-to-back.
	MinBurst = 4.0
)

// ContractFromLog derives a tenant's contract from its composed activity
// log — the same per-tenant arrival model the grouping advisor consolidated
// by. The sustained rate is the tenant's query count over its active time
// (the busy arrival intensity), and the burst is the largest number of
// submissions the log places within any single monitor epoch (60 s), both
// scaled by headroom (>= 1) so ordinary statistical variation above the
// logged history is not punished. headroom <= 0 defaults to 2.
func ContractFromLog(tl *workload.TenantLog, headroom float64) Contract {
	if headroom <= 0 {
		headroom = defaultHeadroom
	}
	if tl == nil {
		return Contract{Rate: headroom * MinRate, Burst: headroom * MinBurst}
	}
	events := 0
	maxEpoch := 0
	for _, ref := range tl.Sessions {
		events += len(ref.Log.Events)
		// Events are in time order within a session; count the max per
		// 60 s epoch with a sliding window over offsets.
		lo := 0
		for hi, ev := range ref.Log.Events {
			for ref.Log.Events[lo].Offset+workload.MonitorEpoch <= ev.Offset {
				lo++
			}
			if n := hi - lo + 1; n > maxEpoch {
				maxEpoch = n
			}
		}
	}
	active := tl.Activity.Total().Seconds()
	rate := MinRate
	if events > 0 && active > 0 {
		if r := float64(events) / active; r > rate {
			rate = r
		}
	}
	burst := MinBurst
	if b := float64(maxEpoch); b > burst {
		burst = b
	}
	return Contract{Rate: headroom * rate, Burst: headroom * burst}
}

// ContractsFromLogs derives every tenant's contract from its log at the
// default headroom of 2.
func ContractsFromLogs(logs []*workload.TenantLog) map[string]Contract {
	out := make(map[string]Contract, len(logs))
	for _, tl := range logs {
		out[tl.Tenant.ID] = ContractFromLog(tl, defaultHeadroom)
	}
	return out
}

// bucket is a virtual-time token bucket. All methods assume the caller
// serializes access (the group's clock domain).
type bucket struct {
	c      Contract
	tokens float64
	last   sim.Time
}

func newBucket(c Contract) *bucket {
	return &bucket{c: c, tokens: c.Burst}
}

// refill accrues tokens for the virtual time elapsed since the last call.
func (b *bucket) refill(now sim.Time) {
	if now <= b.last {
		return
	}
	b.tokens += b.c.Rate * (now - b.last).Seconds()
	if b.tokens > b.c.Burst {
		b.tokens = b.c.Burst
	}
	b.last = now
}

// take admits one query if at least need tokens are present, consuming one
// token. On denial it returns the virtual time until the bucket will have
// refilled to need.
func (b *bucket) take(now sim.Time, need float64) (ok bool, retryAfter sim.Time) {
	b.refill(now)
	if b.tokens >= need {
		b.tokens--
		return true, 0
	}
	return false, b.eta(need)
}

// eta is the virtual time until the bucket refills to need (at least 1 s).
func (b *bucket) eta(need float64) sim.Time {
	d := sim.Time((need - b.tokens) / b.c.Rate * float64(sim.Second))
	if d < sim.Second {
		d = sim.Second
	}
	return d
}

// punish empties the bucket — the brownout policer's response to a hot
// tenant that keeps submitting while rejected: every further attempt
// restarts the refill from zero, so the tenant stays out until it actually
// backs off.
func (b *bucket) punish() { b.tokens = 0 }

func (c Contract) String() string {
	if c.Unlimited() {
		return "unlimited"
	}
	return fmt.Sprintf("rate=%.4f/s burst=%.1f", c.Rate, c.Burst)
}
