package service

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/epoch"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// poolView mirrors cluster.PoolSnapshot's JSON for decoding.
type poolView struct {
	Total    int            `json:"total"`
	Domains  int            `json:"domains"`
	Down     []int          `json:"down_domains"`
	ByState  map[string]int `json:"by_state"`
	ByDomain []struct {
		Domain     int  `json:"domain"`
		Down       bool `json:"down"`
		Active     int  `json:"active"`
		Hibernated int  `json:"hibernated"`
		Failed     int  `json:"failed"`
		Repairing  int  `json:"repairing"`
	} `json:"by_domain"`
	ByOwner []struct {
		Owner  string `json:"owner"`
		Active int    `json:"active"`
	} `json:"by_owner"`
}

// recoveryView mirrors the GET /v1/recovery response.
type recoveryView struct {
	Enabled bool `json:"enabled"`
	Groups  []struct {
		Group       string           `json:"group"`
		CrashEvents []recovery.Event `json:"crash_events"`
		CrashActive int              `json:"crash_in_progress"`
		Quarantined int              `json:"quarantined"`
	} `json:"groups"`
	Triage *struct {
		Enqueued int                    `json:"enqueued"`
		Granted  int                    `json:"granted"`
		Queued   []recovery.TriageClaim `json:"queued"`
	} `json:"triage"`
}

func TestPoolEndpoint(t *testing.T) {
	_, ts, _ := testServer(t)
	var pv poolView
	if code := get(t, ts, "/v1/pool", &pv); code != 200 {
		t.Fatalf("GET /v1/pool: %d", code)
	}
	if pv.Total != 64 || pv.Domains != 1 || len(pv.ByDomain) != 1 {
		t.Fatalf("pool shape: %+v", pv)
	}
	active := pv.ByState["active"]
	if active == 0 || active+pv.ByState["hibernated"] != pv.Total {
		t.Fatalf("by_state does not tally: %+v", pv.ByState)
	}
	if len(pv.ByOwner) == 0 {
		t.Fatalf("no owners in pool snapshot")
	}
	sum := 0
	for _, o := range pv.ByOwner {
		sum += o.Active
	}
	if sum != active {
		t.Fatalf("per-owner active %d != total active %d", sum, active)
	}
}

// deployScarce deploys 2-node tenants onto a two-domain pool with zero spare
// capacity, recovery and the scarcity triage armed — so an injected node
// failure must park in the triage queue.
func deployScarce(t *testing.T) (*master.Deployment, *advisor.Plan) {
	t.Helper()
	ids := []string{"t1", "t2", "t3", "t4"}
	tenants := map[string]*tenant.Tenant{}
	var logs []*workload.TenantLog
	for i, id := range ids {
		tn := &tenant.Tenant{ID: id, Nodes: 2, DataGB: 200, Users: 1, Suite: queries.TPCH}
		tenants[id] = tn
		w := sim.Time(i) * 6 * sim.Hour
		logs = append(logs, &workload.TenantLog{
			Tenant:   tn,
			Activity: epoch.Activity{{Start: w, End: w + sim.Hour}},
		})
	}
	acfg := advisor.DefaultConfig()
	acfg.R = 2
	adv, err := advisor.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adv.Plan(logs, sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := recovery.DefaultConfig()
	m := master.New(cluster.NewPoolDomains(plan.NodesUsed(), 2),
		master.Options{Immediate: true, Recovery: &rcfg, Triage: true})
	dep, err := m.Deploy(plan, tenants)
	if err != nil {
		t.Fatal(err)
	}
	return dep, plan
}

func TestRecoveryEndpointRetryStateAndTriage(t *testing.T) {
	dep, plan := deployScarce(t)
	srv, err := New(dep, queries.Default(), plan, Config{TimeScale: 60})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Unix(0, 0)
	srv.SetClock(func() time.Time { return wall }, time.Unix(0, 0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var rv recoveryView
	if code := get(t, ts, "/v1/recovery", &rv); code != 200 {
		t.Fatalf("GET /v1/recovery: %d", code)
	}
	if !rv.Enabled || rv.Triage == nil || rv.Triage.Enqueued != 0 {
		t.Fatalf("idle recovery view: %+v", rv)
	}

	// Kill one node of the first instance. The pool has zero spares, so the
	// lifecycle must enqueue a triage claim instead of burning retry cycles.
	g := dep.Groups()[0]
	g.Domain().Advance(0, func(*sim.Engine) {
		if _, err := dep.Pool().FailAny(g.Instances[0].ID()); err != nil {
			t.Fatal(err)
		}
		if err := g.Instances[0].FailNode(); err != nil {
			t.Fatal(err)
		}
		g.Recovery.Notify()
	})
	wall = wall.Add(time.Second) // 60 virtual seconds: one triage poll due

	if code := get(t, ts, "/v1/recovery", &rv); code != 200 {
		t.Fatalf("GET /v1/recovery: %d", code)
	}
	var evs []recovery.Event
	for _, rg := range rv.Groups {
		evs = append(evs, rg.CrashEvents...)
	}
	if len(evs) != 1 {
		t.Fatalf("want 1 crash event, got %+v", rv.Groups)
	}
	ev := evs[0]
	if !ev.Triaged || ev.Attempts < 1 || ev.NextAttemptAt == 0 || ev.Recovered() {
		t.Fatalf("retry-cycle state not surfaced: %+v", ev)
	}
	if rv.Triage.Enqueued != 1 || rv.Triage.Granted != 0 || len(rv.Triage.Queued) != 1 {
		t.Fatalf("triage view: %+v", rv.Triage)
	}
	if cl := rv.Triage.Queued[0]; cl.Owner != g.Instances[0].ID() || cl.Tenants == 0 {
		t.Fatalf("queued claim: %+v", cl)
	}

	// The pool view must show the casualty and the two-domain layout.
	var pv poolView
	if code := get(t, ts, "/v1/pool", &pv); code != 200 {
		t.Fatalf("GET /v1/pool: %d", code)
	}
	if pv.Domains != 2 || len(pv.ByDomain) != 2 {
		t.Fatalf("pool domains: %+v", pv)
	}
	if pv.ByState["failed"] != 1 {
		t.Fatalf("want 1 failed node in pool view: %+v", pv.ByState)
	}
}
