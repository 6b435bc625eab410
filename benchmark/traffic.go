package main

import (
	"fmt"
	"sort"
	"strconv"

	thrifty "repro"
	"repro/internal/sim"
)

// scale fixes the input sizes of a run. full is what BENCHMARK.json measures;
// tiny keeps the benchmark compiling and its checks alive inside `go test`.
type scale struct {
	name string
	// The plan workload plans planPopulations independent populations of
	// planTenants each; serveTenants is the population of the replay and
	// serve workloads, which share one event list.
	planPopulations, planTenants, serveTenants int
	// days is the log horizon. Day 0 is a Monday and two random weekdays per
	// time zone are holidays, so a horizon under three days can be empty.
	days int
	// batch is the submit-batch size of serve-mixed; a scrape round follows
	// every scrapeEvery-th batch and a records read every recordsEvery-th.
	batch, scrapeEvery, recordsEvery int
	// probeOps is the number of calls each layer probe makes.
	probeOps int
}

var scales = map[string]scale{
	"full": {name: "full", planPopulations: 4, planTenants: 500, serveTenants: 200, days: 7,
		batch: 64, scrapeEvery: 128, recordsEvery: 2048, probeOps: 200000},
	"tiny": {name: "tiny", planPopulations: 2, planTenants: 40, serveTenants: 40, days: 3,
		batch: 64, scrapeEvery: 16, recordsEvery: 64, probeOps: 2000},
}

// generate builds the seeded testbed. Everything the program under test
// receives derives from the returned logs.
func generate(seed int64, tenants, days int) (*thrifty.Workload, error) {
	return thrifty.GenerateWorkload(thrifty.WorkloadConfig{
		Tenants:          tenants,
		Days:             days,
		SessionsPerClass: sessionsPerClass,
		Seed:             seed,
	})
}

// sessionsPerClass is the size of the step-1 session library per size class
// and suite. Ten instead of the paper's hundred keeps set-up at a fraction of
// a second; a larger library did not make the metrics steadier across seeds.
const sessionsPerClass = 10

// event is one logged query submission.
type event struct {
	at     sim.Time
	tenant string
	class  string
	// sla is the logged before-consolidation latency; replay submits with it,
	// the HTTP API has no field for it.
	sla sim.Time
}

// expandEvents turns the tenants' scheduled sessions into one time-ordered
// submission list over [0, horizon), skipping tenants the plan left out of
// consolidation (as replay does). Ties keep log order, then session order,
// which is the order replay's engine fires them in. The benchmark expands the
// sessions itself so the serve workloads do not depend on how the program
// materialises events.
func expandEvents(w *thrifty.Workload, plan *thrifty.Plan) []event {
	deployed := make(map[string]bool)
	for i := range plan.Groups {
		for _, id := range plan.Groups[i].TenantIDs {
			deployed[id] = true
		}
	}
	var out []event
	for _, tl := range w.Logs {
		if !deployed[tl.Tenant.ID] {
			continue
		}
		for _, ref := range tl.Sessions {
			for _, ev := range ref.Log.Events {
				at := ref.Start + ev.Offset
				if at < 0 || at >= w.Horizon {
					continue
				}
				out = append(out, event{at: at, tenant: tl.Tenant.ID, class: ev.ClassID, sla: ev.Duration})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// request is one prepared HTTP write: its body, the virtual time it is sent
// at, and how many queries it carries.
type request struct {
	body    []byte
	at      sim.Time
	queries int
}

func appendQuery(b []byte, ev *event) []byte {
	b = append(b, `{"tenant":`...)
	b = strconv.AppendQuote(b, ev.tenant)
	b = append(b, `,"query":`...)
	b = strconv.AppendQuote(b, ev.class)
	return append(b, '}')
}

// singleRequests prepares one POST /v1/queries body per event.
func singleRequests(events []event) []request {
	var arena []byte
	offs := make([]int, 0, len(events)+1)
	for i := range events {
		offs = append(offs, len(arena))
		arena = appendQuery(arena, &events[i])
	}
	offs = append(offs, len(arena))
	out := make([]request, len(events))
	for i := range events {
		out[i] = request{body: arena[offs[i]:offs[i+1]:offs[i+1]], at: events[i].at, queries: 1}
	}
	return out
}

// batchRequests prepares POST /v1/submit-batch bodies of consecutive events;
// a batch is sent at its last event's logged time, when all of it has arrived.
func batchRequests(events []event, size int) []request {
	var out []request
	for lo := 0; lo < len(events); lo += size {
		hi := min(lo+size, len(events))
		b := []byte(`{"queries":[`)
		for i := lo; i < hi; i++ {
			if i > lo {
				b = append(b, ',')
			}
			b = appendQuery(b, &events[i])
		}
		b = append(b, "]}"...)
		out = append(out, request{body: b, at: events[hi-1].at, queries: hi - lo})
	}
	return out
}

// flagEveryTenth names every tenth group of the plan, the re-consolidation
// list the plan workload hands to Reconsolidate.
func flagEveryTenth(plan *thrifty.Plan) []string {
	var out []string
	for i := 0; i < len(plan.Groups); i += 10 {
		out = append(out, plan.Groups[i].ID)
	}
	return out
}

func mustScale(name string) (scale, error) {
	sc, ok := scales[name]
	if !ok {
		return scale{}, fmt.Errorf("unknown scale %q (full, tiny)", name)
	}
	return sc, nil
}
