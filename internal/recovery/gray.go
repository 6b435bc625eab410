// Gray-failure (fail-slow) detection and response. A crashed node misses
// heartbeats and the crash Controller handles it; a *gray* node keeps
// heart-beating while running at a fraction of nominal speed, which no
// liveness probe can see. The GrayDetector closes that gap with a
// performance-anomaly detector: every completed query feeds a per-instance
// slowdown profile, and because a tenant-group's members run the same query
// classes across all its MPPDBs, peer-relative outlier detection is
// well-posed — an instance whose completion slowdown drifts far above the
// group's peer median is fail-slow, whatever the cause.
//
// The response is a ladder, cheapest rung first:
//
//  1. suspicion (gray_suspected) — observed profile exceeds suspectRatio ×
//     the peer median. Suspicion is cheap to act on and fully reversible, so
//     hedging engages here: every query routed to the instance is duplicated
//     onto a healthy peer (first completion wins, loser cancelled, nothing
//     double counted), and the queries already stuck on it are hedged
//     immediately;
//  2. confirmation (gray_confirmed) after ConfirmBeats consecutive suspect
//     evaluations — the episode is now real enough to count a strike and to
//     start the drain clock;
//  3. drain (gray_drain) after the instance stays confirmed for DrainAfter —
//     the slow node is treated as failed: it is quarantined from routing,
//     failed administratively at the instance and the pool, and the crash
//     Controller drives the usual §4.4 swap + Table 5.1 reload; when the
//     replacement restores full node count the slowdown is cleared and the
//     instance re-admitted (gray_cleared).
//
// Each confirmed episode costs the instance a strike; at maxStrikes the
// ladder stops being patient with a flapping node and drains it the moment
// it is confirmed again. Strikes are forgotten once the instance stays clear
// for strikeDecay — the strike-out targets rapid relapse, not a lifetime
// episode total.
package recovery

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/mppdb"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// GrayConfig controls a group's fail-slow detector.
type GrayConfig struct {
	// Window is how many recent load-normalized slowdown samples each
	// instance's profile retains.
	Window int
	// MinSamples is how many samples an instance needs before it is judged
	// (and before it counts as a peer).
	MinSamples int
	// ConfirmBeats is how many consecutive suspect evaluations confirm a
	// gray failure (and engage hedging).
	ConfirmBeats int
	// ClearBeats is how many consecutive healthy evaluations clear a
	// suspicion or a confirmation.
	ClearBeats int
	// DrainAfter is how long a confirmed-gray instance is tolerated (served
	// by hedging) before it is drained and its slow node replaced.
	DrainAfter time.Duration
}

const (
	// grayInterval is the evaluation period on the group's clock domain.
	grayInterval = time.Minute
	// suspectRatio is the observed-over-peer-median slowdown ratio at which an
	// instance becomes suspect.
	suspectRatio = 1.5
	// minSlowdown is an absolute floor: an instance is never suspected while
	// its mean load-normalized slowdown is below it, however idle the peers
	// are. A healthy instance's normalized slowdown never exceeds 1, so any
	// floor above that demands genuine speed loss.
	minSlowdown = 1.3
	// maxStrikes is the flapping strike-out: once an instance has been
	// confirmed gray this many times, the next confirmation drains it
	// immediately instead of waiting out DrainAfter.
	maxStrikes = 3
	// strikeDecay forgets an instance's strikes once it has stayed clear for
	// this long: transient episodes far apart never accumulate into a
	// strike-out, while a flapper relapsing within the window still does.
	strikeDecay = 6 * time.Hour
)

// DefaultGrayConfig returns the detector's standard settings: a 64-sample
// window judged from 8 samples, confirm after 3 beats, clear after 2, drain
// after 10 further minutes.
func DefaultGrayConfig() GrayConfig {
	return GrayConfig{
		Window:       64,
		MinSamples:   8,
		ConfirmBeats: 3,
		ClearBeats:   2,
		DrainAfter:   10 * time.Minute,
	}
}

func (c GrayConfig) validate() error {
	if c.DrainAfter < 0 {
		return fmt.Errorf("recovery: gray drain-after %v", c.DrainAfter)
	}
	if c.Window < 1 || c.MinSamples < 1 || c.MinSamples > c.Window {
		return fmt.Errorf("recovery: gray window %d / min samples %d", c.Window, c.MinSamples)
	}
	if c.ConfirmBeats < 1 || c.ClearBeats < 1 {
		return fmt.Errorf("recovery: gray beats in %+v", c)
	}
	return nil
}

// HedgeRouter is the router surface the detector drives: flagging engages
// hedged duplication, quarantine removes the instance from routing, and the
// completion observer is the detector's sample feed.
type HedgeRouter interface {
	SetGrayFlag(dbID string, on bool)
	SetQuarantine(dbID string, on bool)
	HedgeInFlight(dbID string) int
	SetCompletionObserver(fn func(dbID string, res mppdb.Result))
}

// GrayEvent records one fail-slow episode's lifecycle.
type GrayEvent struct {
	Group string `json:"group"`
	MPPDB string `json:"mppdb"`
	// Suspected/Confirmed/Drained/Cleared are the ladder timestamps (zero
	// where a rung was never reached).
	Suspected sim.Time `json:"suspected"`
	Confirmed sim.Time `json:"confirmed,omitempty"`
	Drained   sim.Time `json:"drained,omitempty"`
	Cleared   sim.Time `json:"cleared,omitempty"`
	// Observed and PeerMedian are the mean completion slowdowns at the
	// moment of suspicion.
	Observed   float64 `json:"observed_slowdown"`
	PeerMedian float64 `json:"peer_median"`
	// Hedged counts the in-flight queries duplicated when hedging engaged
	// at suspicion.
	Hedged int `json:"hedged_inflight,omitempty"`
	// Strikes is the instance's episode count including this one.
	Strikes int `json:"strikes,omitempty"`
	// Resolution states how the episode ended: "suspicion_cleared",
	// "recovered" (cleared while hedged), "drained_replaced", or
	// "hedge_only" (instance too small to drain; hedging held the line).
	Resolution string `json:"resolution,omitempty"`
}

// Cleared-phase constants of one instance's detector state machine.
const (
	grayHealthy = iota
	graySuspected
	grayConfirmed
	grayDraining
)

// grayState is the per-instance detector state.
type grayState struct {
	ring    []float64
	n, next int

	phase        int
	suspectBeats int
	healthyBeats int
	confirmedAt  sim.Time
	clearedAt    sim.Time
	seen         int64 // completions observed, ever
	lastSeen     int64 // seen at the previous evaluation beat
	strikes      int
	fnBefore     int  // FailedNodes before the administrative drain-fail
	noDrain      bool // instance cannot shed a node; hedge-only episode
	ev           *GrayEvent
}

// GrayDetector watches one tenant-group for fail-slow instances. Like the
// crash Controller it is confined to the group's engine: all methods except
// Events/InProgress must run while holding the group's clock domain.
type GrayDetector struct {
	eng    *sim.Engine
	group  string
	insts  []*mppdb.Instance
	rt     HedgeRouter
	ctrl   *Controller
	pool   *cluster.Pool
	cfg    GrayConfig
	states []grayState
	byID   map[string]int
	events []*GrayEvent

	tel        *telemetry.Hub
	mSuspected *telemetry.Counter
	mConfirmed *telemetry.Counter
	mDrained   *telemetry.Counter
	mCleared   *telemetry.Counter
	mActive    *telemetry.Gauge
}

// NewGrayDetector builds a detector over the group's instances, armed: its
// evaluation beat is queued on eng every minute, as shared events (a beat
// may drain an instance's pool node), so the caller must hold the group's
// clock domain. tel is the group's telemetry view, rt the group's router
// (its completion stream becomes the sample feed) and ctrl the group's
// crash-recovery controller, which executes the drain rung's node
// replacement.
func NewGrayDetector(eng *sim.Engine, pool *cluster.Pool, tel *telemetry.Hub, group string,
	insts []*mppdb.Instance, rt HedgeRouter, ctrl *Controller, cfg GrayConfig) (*GrayDetector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if eng == nil || pool == nil || tel == nil || len(insts) == 0 || rt == nil || ctrl == nil {
		return nil, fmt.Errorf("recovery: gray detector for %q needs engine, pool, telemetry hub, instances, router, and controller", group)
	}
	d := &GrayDetector{
		eng:        eng,
		group:      group,
		insts:      insts,
		rt:         rt,
		ctrl:       ctrl,
		pool:       pool,
		cfg:        cfg,
		states:     make([]grayState, len(insts)),
		byID:       make(map[string]int, len(insts)),
		tel:        tel,
		mSuspected: tel.Registry.Counter("thrifty_gray_suspected_total", "group", group),
		mConfirmed: tel.Registry.Counter("thrifty_gray_confirmed_total", "group", group),
		mDrained:   tel.Registry.Counter("thrifty_gray_drained_total", "group", group),
		mCleared:   tel.Registry.Counter("thrifty_gray_cleared_total", "group", group),
		mActive:    tel.Registry.Gauge("thrifty_gray_active", "group", group),
	}
	for i, inst := range insts {
		d.states[i].ring = make([]float64, cfg.Window)
		d.byID[inst.ID()] = i
	}
	rt.SetCompletionObserver(d.observe)
	var beat func(now sim.Time)
	beat = func(now sim.Time) {
		d.evaluate()
		d.eng.AfterShared(grayInterval, beat)
	}
	d.eng.AfterShared(grayInterval, beat)
	return d, nil
}

// Events returns a copy of all gray episodes so far, suspicion order.
func (d *GrayDetector) Events() []GrayEvent {
	out := make([]GrayEvent, len(d.events))
	for i, e := range d.events {
		out[i] = *e
	}
	return out
}

// InProgress returns how many instances are currently past Healthy.
func (d *GrayDetector) InProgress() int {
	n := 0
	for i := range d.states {
		if d.states[i].phase != grayHealthy {
			n++
		}
	}
	return n
}

// observe is the router's completion feed: one load-normalized slowdown
// sample per really completed query (hedge losers are cancelled and never
// land here). Raw slowdown conflates contention with sickness — under
// processor sharing k concurrent queries each legitimately run k× slower —
// so the sample divides by the peak concurrency the query saw: ≤1 on a
// healthy instance however busy it is, ≈1/speed on a fail-slow one.
func (d *GrayDetector) observe(dbID string, res mppdb.Result) {
	i, ok := d.byID[dbID]
	if !ok {
		return
	}
	s := res.Slowdown()
	if res.MaxConcurrency > 1 {
		s /= float64(res.MaxConcurrency)
	}
	st := &d.states[i]
	st.seen++
	st.ring[st.next] = s
	st.next = (st.next + 1) % len(st.ring)
	if st.n < len(st.ring) {
		st.n++
	}
}

// mean returns the instance's current profile mean, or 0 with ok=false when
// it has too few samples to judge.
func (st *grayState) mean(minSamples int) (float64, bool) {
	if st.n < minSamples {
		return 0, false
	}
	sum := 0.0
	for _, v := range st.ring[:st.n] {
		sum += v
	}
	return sum / float64(st.n), true
}

// median of a small slice; sorts in place.
func median(v []float64) float64 {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// evaluate runs one detection beat: compare every instance's profile against
// its peers and advance each state machine one step.
func (d *GrayDetector) evaluate() {
	now := d.eng.Now()
	means := make([]float64, len(d.insts))
	valid := make([]bool, len(d.insts))
	for i := range d.states {
		means[i], valid[i] = d.states[i].mean(d.cfg.MinSamples)
	}
	var peers []float64
	for i, inst := range d.insts {
		st := &d.states[i]
		if st.phase == grayDraining {
			d.checkDrained(i, inst, now)
			continue
		}
		fresh := st.seen > st.lastSeen
		st.lastSeen = st.seen
		if st.phase != grayHealthy && !fresh {
			// Hedging starves a flagged instance of samples: its duplicates
			// lose the race and are cancelled before completing, so the ring
			// freezes full of stale values. The silence is weak evidence of
			// continued sickness — a healthy instance wins races — so a
			// starved beat advances confirmation and the drain clock, but it
			// must not touch the healthy streak either way: interleaved race
			// wins still clear the episode, while a frozen ring can never
			// fake a recovery.
			st.suspectBeats++
			d.escalate(i, inst, now, means[i], 0)
			continue
		}
		if !valid[i] {
			continue
		}
		peers = peers[:0]
		for j := range d.insts {
			if j != i && valid[j] {
				peers = append(peers, means[j])
			}
		}
		if len(peers) == 0 {
			continue // no basis for peer-relative judgement
		}
		pm := median(peers)
		suspicious := pm > 0 && means[i] >= suspectRatio*pm && means[i] >= minSlowdown
		if suspicious {
			st.healthyBeats = 0
			st.suspectBeats++
			d.escalate(i, inst, now, means[i], pm)
		} else {
			st.suspectBeats = 0
			if st.phase != grayHealthy {
				st.healthyBeats++
				if st.healthyBeats >= d.cfg.ClearBeats {
					d.clear(i, inst, now, "recovered")
				}
			}
		}
	}
}

// escalate advances one suspicious instance up the ladder.
func (d *GrayDetector) escalate(i int, inst *mppdb.Instance, now sim.Time, observed, pm float64) {
	st := &d.states[i]
	switch st.phase {
	case grayHealthy:
		st.phase = graySuspected
		st.ev = &GrayEvent{
			Group:      d.group,
			MPPDB:      inst.ID(),
			Suspected:  now,
			Observed:   observed,
			PeerMedian: pm,
		}
		d.events = append(d.events, st.ev)
		// Hedging is reversible and costs only duplicate work, so it engages
		// on suspicion — the blind window is one beat, not ConfirmBeats.
		d.rt.SetGrayFlag(inst.ID(), true)
		st.ev.Hedged = d.rt.HedgeInFlight(inst.ID())
		d.mSuspected.Inc()
		d.mActive.Add(1)
		d.tel.Events.Publish(telemetry.Event{
			Type:  telemetry.EventGraySuspected,
			Group: d.group,
			MPPDB: inst.ID(),
			Value: observed,
			Detail: fmt.Sprintf("completion slowdown %.2f vs peer median %.2f; hedging engaged (%d in-flight duplicated)",
				observed, pm, st.ev.Hedged),
		})
	case graySuspected:
		if st.suspectBeats < d.cfg.ConfirmBeats {
			return
		}
		st.phase = grayConfirmed
		st.confirmedAt = now
		if st.strikes > 0 && st.clearedAt > 0 && now-st.clearedAt >= sim.Duration(strikeDecay) {
			st.strikes = 0
		}
		st.strikes++
		st.ev.Confirmed = now
		st.ev.Strikes = st.strikes
		d.mConfirmed.Inc()
		d.tel.Events.Publish(telemetry.Event{
			Type:   telemetry.EventGrayConfirmed,
			Group:  d.group,
			MPPDB:  inst.ID(),
			Value:  observed,
			Detail: fmt.Sprintf("episode confirmed, strike %d; drain clock started", st.strikes),
		})
		// A flapping instance that has struck out skips the patience window.
		if st.strikes >= maxStrikes {
			d.drain(i, inst, now)
		}
	case grayConfirmed:
		if !st.noDrain && now-st.confirmedAt >= sim.Duration(d.cfg.DrainAfter) {
			d.drain(i, inst, now)
		}
	}
}

// drain executes the ladder's last rung: quarantine the instance, treat its
// slow node as failed at both the instance and the pool, and hand the
// replacement to the crash controller.
func (d *GrayDetector) drain(i int, inst *mppdb.Instance, now sim.Time) {
	st := &d.states[i]
	st.fnBefore = inst.FailedNodes()
	if err := inst.FailNode(); err != nil {
		// A single-node (or already maximally degraded) instance cannot shed
		// a node; hedging and quarantine-free serving are all we have.
		st.noDrain = true
		st.ev.Resolution = "hedge_only"
		return
	}
	// Fail a pool node of the instance so the controller performs a true
	// swap (replace + re-image) instead of growing the allocation. With no
	// pool-side record (test wiring) the controller's plain-acquire fallback
	// still replaces the capacity.
	_, _ = d.pool.FailAny(inst.ID())
	d.rt.SetQuarantine(inst.ID(), true)
	st.phase = grayDraining
	st.ev.Drained = now
	d.mDrained.Inc()
	d.tel.Events.Publish(telemetry.Event{
		Type:   telemetry.EventGrayDrain,
		Group:  d.group,
		MPPDB:  inst.ID(),
		Value:  inst.Slowdown(),
		Detail: "quarantined; slow node failed over to the recovery controller",
	})
	d.ctrl.Notify()
}

// checkDrained watches a draining instance for its replacement completing:
// the crash controller's RepairNode restores the failed-node count, at which
// point the fresh hardware clears the fail-slow fault and the instance is
// re-admitted.
func (d *GrayDetector) checkDrained(i int, inst *mppdb.Instance, now sim.Time) {
	st := &d.states[i]
	if inst.FailedNodes() > st.fnBefore {
		return // replacement still reloading
	}
	_ = inst.SetSlowdown(1)
	d.clear(i, inst, now, "drained_replaced")
}

// clear closes an episode and resets the instance to Healthy.
func (d *GrayDetector) clear(i int, inst *mppdb.Instance, now sim.Time, how string) {
	st := &d.states[i]
	wasSuspectOnly := st.phase == graySuspected
	d.rt.SetGrayFlag(inst.ID(), false)
	d.rt.SetQuarantine(inst.ID(), false)
	if st.ev != nil {
		st.ev.Cleared = now
		if wasSuspectOnly {
			how = "suspicion_cleared"
		}
		st.ev.Resolution = how
	}
	d.mCleared.Inc()
	d.mActive.Add(-1)
	d.tel.Events.Publish(telemetry.Event{
		Type:   telemetry.EventGrayCleared,
		Group:  d.group,
		MPPDB:  inst.ID(),
		Detail: how,
	})
	st.phase = grayHealthy
	st.suspectBeats, st.healthyBeats = 0, 0
	st.clearedAt = now
	st.noDrain = false
	st.ev = nil
	// Reset the profile: samples taken while gray must not bias the next
	// judgement.
	st.n, st.next = 0, 0
}
