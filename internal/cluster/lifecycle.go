package cluster

import (
	"time"

	"repro/internal/sim"
)

// Lifecycle is Table 5.1's node lifecycle on one tenant-group's clock:
// stage nodes for an owner, make them ready after start-up plus bulk load,
// then cut over or abort; or swap one failed node for a fresh one. It is
// the one place that acquires, prices and re-images nodes: the Deployment
// Master, crash recovery, the scarcity triage, re-spread and the §5.1 scaler
// decide who gets nodes and when, and call it for how. Every event it
// schedules is shared (sim.Engine.AfterShared), since it writes the pool.
type Lifecycle struct {
	eng      *sim.Engine
	pool     *Pool
	parallel bool
	spread   bool
}

// NewLifecycle returns the lifecycle of the group driven by eng over pool.
// parallelLoad selects the MPPDB's parallel bulk loading (§7.2) for every
// load it prices; spread places staged nodes away from sibling domains when
// the pool has more than one.
func NewLifecycle(eng *sim.Engine, pool *Pool, parallelLoad, spread bool) *Lifecycle {
	return &Lifecycle{eng: eng, pool: pool, parallel: parallelLoad, spread: spread && pool.Domains() > 1}
}

// Engine returns the group's engine.
func (l *Lifecycle) Engine() *sim.Engine { return l.eng }

// Pool returns the shared node pool.
func (l *Lifecycle) Pool() *Pool { return l.pool }

// Spreads reports whether Stage places nodes across failure domains.
func (l *Lifecycle) Spreads() bool { return l.spread }

// Stage acquires n nodes for owner — whole within one failure domain away
// from avoid when the lifecycle spreads (Pool.AcquireSpread), the lowest
// free IDs otherwise — and returns the sorted distinct domains they landed
// in. A failure leaves the pool untouched.
func (l *Lifecycle) Stage(owner string, n int, avoid []int) ([]int, error) {
	if l.spread {
		_, doms, err := l.pool.AcquireSpread(owner, n, avoid)
		return doms, err
	}
	nodes, err := l.pool.Acquire(owner, n)
	if err != nil {
		return nil, err
	}
	return distinctDomains(nodes), nil
}

// Ready calls fn once owner's n staged nodes have started and bulk-loaded
// dataGB, with intact reporting that none of them failed meanwhile. It
// returns the delay, ProvisionTime.
func (l *Lifecycle) Ready(owner string, n int, dataGB float64, fn func(intact bool)) time.Duration {
	d := ProvisionTime(n, dataGB, l.parallel)
	l.eng.AfterShared(d, func(sim.Time) { fn(l.pool.FailedCount(owner) == 0) })
	return d
}

// Swap turns owner's lowest-ID Failed node into Repairing plus a fresh node
// (with no Failed record for owner, it acquires one node instead), schedules
// the re-image, and calls fn once the fresh node has started and reloaded
// shareGB over streams loader streams (one unless loading is parallel). It
// returns the swapped-out node (-1: none), the fresh one and the delay; a
// failure leaves the pool untouched and schedules nothing.
func (l *Lifecycle) Swap(owner string, shareGB float64, streams int, fn func()) (failed, repl int, delay time.Duration, err error) {
	failed, nd, err := l.pool.swap(owner)
	if err != nil {
		return -1, -1, 0, err
	}
	if failed >= 0 {
		l.reimage(failed)
	}
	delay = StartupTime(1) + LoadTime(shareGB, streams, l.parallel)
	l.eng.AfterShared(delay, func(sim.Time) { fn() })
	return failed, nd.ID, delay, nil
}

// CutOver adopts the nodes staged (all of which must still be Active) under
// owner and hibernates owner's previous active nodes, returning their IDs.
// On any precondition failure nothing changes and the caller aborts staged.
func (l *Lifecycle) CutOver(owner, staged string) ([]int, error) {
	return l.pool.cutOver(owner, staged)
}

// Abort gives up all of owner's nodes: Active ones hibernate at once, Failed
// ones go to Repairing and are re-imaged.
func (l *Lifecycle) Abort(owner string) {
	_, repairing := l.pool.release(owner)
	for _, id := range repairing {
		l.reimage(id)
	}
}

// reimage returns a Repairing node to the free list after ReimageTime.
func (l *Lifecycle) reimage(id int) {
	l.eng.AfterShared(reimageTime, func(sim.Time) { _ = l.pool.Reimage(id) })
}
