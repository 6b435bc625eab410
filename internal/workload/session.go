// Package workload implements the paper's tenant-log generation methodology
// (§7.1) — the experimental testbed contribution.
//
// Step 1 (this file) imitates individual tenants of each size class and
// collects 3-hour "real query logs" by running user populations against a
// dedicated simulated MPPDB. Step 2 (compose.go) composes 30-day
// multi-tenant activity logs from those session logs using time-zone
// offsets, office-hour schedules, weekends, and holidays.
//
// Both steps draw from one seeded rand each, serially, so a seed fixes every
// log. Step 1's draws depend on what its simulation does and stay on the
// caller. Compose makes all of its draws first — every zone's holidays and
// every tenant's session picks, a pick past the horizon included — and then
// merges each tenant's activity from its picked sessions on GOMAXPROCS
// workers, which draw nothing: the logs are the same at any width.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/epoch"
	"repro/internal/mppdb"
	"repro/internal/queries"
	"repro/internal/sim"
)

// SessionLength is the duration of one collected query log (§7.1: "each time
// the above procedure is carried out for 3 hours").
const SessionLength = 3 * time.Hour

// Step-1 user behaviour parameters (§7.1).
const (
	// MaxUsers is the upper bound of S, the tenant's autonomous users.
	MaxUsers = 5
	// MaxBatch is the upper bound of M, the batch size.
	MaxBatch = 10
	// PauseMinSec / PauseMaxSec bound the think time W in seconds.
	PauseMinSec = 3
	PauseMaxSec = 600
)

// BatchProb is the probability that a user action is a batch submission (b)
// rather than a single query (a). The thesis leaves the action distribution
// P underspecified ("using a uniform distribution as P"); 0.2 is the
// calibration that reproduces the paper's reported average active tenant
// ratios (8.9–12%, 11.9% at defaults) given our query latency profiles.
const BatchProb = 0.2

// SessionEvent is one query submission within a session log.
type SessionEvent struct {
	// Offset is the submission time relative to the session start.
	Offset sim.Time
	// ClassID identifies the query class (resolve via a queries.Catalog).
	ClassID string
	// User is the submitting user's index within the tenant (0-based).
	User int
	// Batch is a per-session batch sequence number; single submissions and
	// all members of one batch share one value.
	Batch int
	// Duration is the observed execution time during collection (on the
	// tenant's own requested-size MPPDB, including contention from the
	// tenant's other concurrent queries).
	Duration sim.Time
}

// SessionLog is one collected 3-hour query log of an artificial tenant
// (§7.1 step 1): "Each query log collected is essentially a 3-hour real
// query log of an artificial tenant, which requests, say, a 16-node MPPDB
// with a maximum of 4 active users."
type SessionLog struct {
	// Nodes is the size class the log was collected on.
	Nodes int
	// Suite is the benchmark the users drew queries from.
	Suite queries.Suite
	// Users is S, the number of autonomous users during collection.
	Users int
	// Events are the submissions in time order.
	Events []SessionEvent
	// Activity is the merged set of intervals (relative to session start)
	// during which at least one query was executing.
	Activity epoch.Activity
}

// CollectSession runs the paper's step-1 procedure once: S ∈ [1, MaxUsers]
// autonomous users submit either a single random query or a batch of
// M ∈ [1, MaxBatch] random queries to a dedicated nodes-node MPPDB holding
// 100 GB per node, wait for completion, pause W ∈ [PauseMin, PauseMax]
// seconds, and repeat; no new action starts after the 3-hour mark.
func CollectSession(cat *queries.Catalog, nodes int, suite queries.Suite, rng *rand.Rand) (*SessionLog, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("workload: size class %d", nodes)
	}
	eng := sim.NewEngine()
	inst := mppdb.New(eng, "collector", nodes)
	self := inst.Interner().Intern("self")
	inst.DeployTenantRef(self, 100*float64(nodes))

	log := &SessionLog{
		Nodes: nodes,
		Suite: suite,
		Users: 1 + rng.Intn(MaxUsers),
	}
	horizon := sim.Duration(SessionLength)
	var intervals []epoch.Interval
	batchSeq := 0
	// pending counts each user's queries of the action in flight: a user
	// acts again only once its action's last query completes.
	pending := make([]int, log.Users)

	// submit one query, tagged with its event index so completion can fill
	// in the duration.
	submit := func(user, batch int) error {
		class := cat.Random(rng, suite)
		if class == nil {
			return fmt.Errorf("workload: empty suite %v", suite)
		}
		tag := uint64(len(log.Events))
		log.Events = append(log.Events, SessionEvent{
			Offset:  eng.Now(),
			ClassID: class.ID,
			User:    user,
			Batch:   batch,
		})
		_, err := inst.SubmitTagged(self, class, tag)
		return err
	}

	var act func(user int) // one user's action loop
	var submitErr error
	act = func(user int) {
		if submitErr != nil || eng.Now() >= horizon {
			return
		}
		batchSeq++
		// (a) a single random query, or (b) a batch of M random queries;
		// either action completes only when all of its queries finish.
		m := 1
		if rng.Float64() < BatchProb {
			m = 1 + rng.Intn(MaxBatch)
		}
		pending[user] = m
		for i := 0; i < m; i++ {
			if err := submit(user, batchSeq); err != nil {
				submitErr = err
				return
			}
		}
	}
	inst.SetCompletionHandler(func(r mppdb.Result, tag uint64) {
		ev := &log.Events[tag]
		ev.Duration = r.Latency()
		intervals = append(intervals, epoch.Interval{Start: r.Submit, End: r.Finish})
		user := ev.User
		if pending[user]--; pending[user] > 0 {
			return
		}
		// Pause W seconds, then act again (if within the session).
		w := time.Duration(PauseMinSec+rng.Intn(PauseMaxSec-PauseMinSec+1)) * time.Second
		eng.After(w, func(sim.Time) { act(user) })
	})
	// Users log in over the first think-time window rather than all at the
	// session's first instant; a synchronized burst at every 9:00:00 would
	// be an artifact of the generator, not of office-hour behaviour.
	for u := 0; u < log.Users; u++ {
		u := u
		w0 := sim.Time(PauseMinSec+rng.Intn(PauseMaxSec-PauseMinSec+1)) * sim.Second
		eng.Schedule(w0, func(sim.Time) { act(u) })
	}
	eng.RunAll() // in-flight queries at the 3-hour mark run to completion
	if submitErr != nil {
		return nil, submitErr
	}
	log.Activity = epoch.Normalize(intervals)
	return log, nil
}

// BusyFraction returns the share of the 3-hour session during which the
// tenant had at least one query running — the within-session activity level
// that, composed over office hours, produces the paper's ~10–12% active
// tenant ratios.
func (l *SessionLog) BusyFraction() float64 {
	return l.Activity.Ratio(sim.Duration(SessionLength))
}

// Library is the step-1 output: a pool of collected session logs per
// (size class, suite), from which step 2 composes tenant activity.
type Library struct {
	logs map[libKey][]*SessionLog
}

type libKey struct {
	nodes int
	suite queries.Suite
}

// BuildLibrary collects perClass session logs for every (size, suite)
// combination (the paper repeats the procedure 100 times per size class).
func BuildLibrary(cat *queries.Catalog, sizes []int, perClass int, seed int64) (*Library, error) {
	if perClass < 1 {
		return nil, fmt.Errorf("workload: perClass %d", perClass)
	}
	lib := &Library{logs: make(map[libKey][]*SessionLog)}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range sizes {
		for _, suite := range []queries.Suite{queries.TPCH, queries.TPCDS} {
			key := libKey{n, suite}
			for i := 0; i < perClass; i++ {
				s, err := CollectSession(cat, n, suite, rng)
				if err != nil {
					return nil, err
				}
				lib.logs[key] = append(lib.logs[key], s)
			}
		}
	}
	return lib, nil
}

// Sizes returns the size classes present in the library.
func (l *Library) Sizes() []int {
	seen := map[int]bool{}
	for k := range l.logs {
		seen[k.nodes] = true
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	for i := 1; i < len(out); i++ { // insertion sort; tiny
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Pick draws a uniformly random session log for the given class ("the
// tenant randomly picks a 3-hour query log from the logs prepared in
// Step 1", §7.1 step 2).
func (l *Library) Pick(rng *rand.Rand, nodes int, suite queries.Suite) (*SessionLog, error) {
	set := l.logs[libKey{nodes, suite}]
	if len(set) == 0 {
		return nil, fmt.Errorf("workload: no session logs for %d-node %v", nodes, suite)
	}
	return set[rng.Intn(len(set))], nil
}

// MeanBusyFraction reports the library-wide mean session busy fraction,
// used to validate workload calibration.
func (l *Library) MeanBusyFraction() float64 {
	var sum float64
	n := 0
	for _, set := range l.logs {
		for _, s := range set {
			sum += s.BusyFraction()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
