// Package service exposes a Thrifty deployment as an MPPDB-as-a-Service
// HTTP front end: tenants submit queries (which the Query Router places per
// Algorithm 1), operators inspect the deployment plan, per-group run-time
// statistics, completed query records, and scaling events. The deployment's
// telemetry hub is exposed too: GET /metrics (Prometheus text),
// GET /v1/events (recent SLA events), and GET /v1/slo (per-tenant SLA
// attainment against the guarantee P). GET /v1/pool snapshots the shared
// node pool (state counts, per-domain breakdown, per-owner footprint) and
// GET /v1/recovery the failure-resilience state: crash lifecycles with their
// retry-cycle positions, gray episodes, quarantines, and the scarcity triage
// queue.
//
// The execution substrate is the virtual-time simulator; the service paces
// it against the wall clock with a configurable time-scale factor (virtual
// seconds per wall second), advancing clocks on every request. At the
// default 60× scale, a one-minute analytical query completes in one wall
// second — fast enough to demo, slow enough to watch queries overlap.
//
// Concurrency is per tenant-group: the front door resolves a submit to its
// group in O(1) and takes only that group's clock domain, so submits to
// different groups proceed fully in parallel.
// There is no global lock on the hot path — the server-wide RWMutex is
// read-acquired by every handler and write-acquired only when Install swaps
// in a re-consolidated deployment; routing is one map read, and the pacing
// origin and the per-group coalescers are read without a lock. Pure-read
// endpoints (plan, pending) touch no clock domain at all, and the telemetry
// endpoints read the hub, which is internally synchronized, outside every
// lock.
package service

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/advisor"
	"repro/internal/billing"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/queries"
	"repro/internal/recovery"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/sqlmatch"
)

// Server is the HTTP front end. A single Server is safe for concurrent HTTP
// traffic; engine access is serialized per tenant-group by the groups' clock
// domains.
type Server struct {
	// topo guards the deployment topology: Install swaps dep/plan under the
	// write lock, every handler works under the read lock.
	topo sync.RWMutex
	dep  *master.Deployment
	plan *advisor.Plan

	cat       *queries.Catalog
	timeScale float64
	retry     runtime.RetryPolicy

	// clock is the wall-clock pacing origin, replaced whole by SetClock and
	// by Install (under the topology write lock).
	clock atomic.Pointer[clock]

	// pendMu guards pending registrations; they never touch a clock domain.
	pendMu  sync.Mutex
	pending []PendingTenant

	// reconMu guards the last offline re-consolidation report.
	reconMu     sync.Mutex
	reconReport *advisor.ReconsolidationReport

	// coalescers batch concurrent single submits per group (leader/follower):
	// *runtime.GroupRuntime → *coalescer, created on a group's first submit
	// and emptied by Install.
	coalescers sync.Map

	// recCache caches the sorted records view served by GET /v1/records,
	// keyed on the per-group record counts (the record log is append-only).
	recCache recordsCache

	matcher *sqlmatch.Matcher
	// routes maps an exact path to its handlers; group serves the one
	// prefix rule, /v1/groups/{id}.
	routes map[string]route
	group  route
}

// clock is an immutable pacing origin: virtual time is the scaled wall time
// since started.
type clock struct {
	now     func() time.Time // injectable for tests
	started time.Time
}

// route is one path's handlers. HEAD is served by get, as http.ServeMux
// does; allow is the Allow header of a 405 on the path, in the mux's order.
type route struct {
	get, post http.HandlerFunc
	allow     string
}

// groupPrefix is the prefix of GET /v1/groups/{id}.
const groupPrefix = "/v1/groups/"

// PendingTenant is a registration awaiting the next (re)-consolidation
// cycle (§3c: "it is expected that there are new tenants register with and
// existing tenants de-register with the service").
type PendingTenant struct {
	ID    string `json:"id"`
	Nodes int    `json:"nodes"`
	Suite string `json:"suite"`
}

// Config parameterizes the server.
type Config struct {
	// TimeScale is virtual seconds advanced per wall-clock second
	// (default 60).
	TimeScale float64
	// DisableMetrics removes the Prometheus GET /metrics endpoint (the
	// observability JSON endpoints under /v1 stay).
	DisableMetrics bool
	// SubmitRetries bounds how often a transiently failed submit is
	// re-tried against the tenant's replica set before timing out
	// (default 3; negative disables retries).
	SubmitRetries int
	// SubmitBackoff is the virtual-time wait between submit attempts
	// (default 30 s).
	SubmitBackoff time.Duration
	// SubmitTimeout is the virtual-time budget per submit; past it the
	// request fails with 504 instead of hanging the group's clock domain
	// (default 5 min).
	SubmitTimeout time.Duration
}

// New builds a server over a live deployment, whose groups each run on a
// clock domain of their own.
func New(dep *master.Deployment, cat *queries.Catalog,
	plan *advisor.Plan, cfg Config) (*Server, error) {
	if dep == nil || cat == nil || plan == nil {
		return nil, fmt.Errorf("service: nil dependency")
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 60
	}
	if cfg.TimeScale < 0 {
		return nil, fmt.Errorf("service: negative time scale")
	}
	retry := runtime.DefaultRetryPolicy()
	if cfg.SubmitRetries != 0 {
		retry.MaxRetries = max(cfg.SubmitRetries, 0)
	}
	if cfg.SubmitBackoff > 0 {
		retry.Backoff = cfg.SubmitBackoff
	}
	if cfg.SubmitTimeout > 0 {
		retry.Timeout = cfg.SubmitTimeout
	}
	s := &Server{
		dep:       dep,
		cat:       cat,
		plan:      plan,
		timeScale: cfg.TimeScale,
		retry:     retry,
		matcher:   sqlmatch.New(cat),
	}
	s.clock.Store(&clock{now: time.Now, started: time.Now()})
	get := func(h http.HandlerFunc) route { return route{get: h, allow: "GET, HEAD"} }
	post := func(h http.HandlerFunc) route { return route{post: h, allow: "POST"} }
	s.routes = map[string]route{
		"/healthz":            get(s.handleHealth),
		"/v1/catalog":         get(s.handleCatalog),
		"/v1/plan":            get(s.handlePlan),
		"/v1/groups":          get(s.handleGroups),
		"/v1/queries":         post(s.handleSubmit),
		"/v1/submit-batch":    post(s.handleSubmitBatch),
		"/v1/records":         get(s.handleRecords),
		"/v1/tenants":         post(s.handleRegister),
		"/v1/tenants/pending": get(s.handlePending),
		"/v1/invoices":        get(s.handleInvoices),
		"/v1/events":          get(s.handleEvents),
		"/v1/slo":             get(s.handleSLO),
		"/v1/admission":       get(s.handleAdmission),
		"/v1/recovery":        get(s.handleRecovery),
		"/v1/pool":            get(s.handlePool),
		"/v1/reconsolidation": get(s.handleReconsolidation),
	}
	if !cfg.DisableMetrics {
		s.routes["/metrics"] = get(s.handleMetrics)
	}
	s.group = get(s.handleGroup)
	return s, nil
}

// ServeHTTP implements http.Handler. Routing is one map read on the request
// path as sent: unlike http.ServeMux, an unclean path (//v1/queries,
// /v1/./slo) is not redirected but not found.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h, allow := s.handler(r)
	switch {
	case h != nil:
		h(w, r)
	case allow == "":
		writeErr(w, http.StatusNotFound, "no endpoint %s", r.URL.Path)
	default:
		w.Header().Set("Allow", allow)
		writeErr(w, http.StatusMethodNotAllowed, "%s does not take %s", r.URL.Path, r.Method)
	}
}

// handler resolves r to its handler. With none, allow lists the methods the
// path takes: empty for an unknown path.
func (s *Server) handler(r *http.Request) (h http.HandlerFunc, allow string) {
	rt, ok := s.routes[r.URL.Path]
	if !ok {
		id, found := strings.CutPrefix(r.URL.Path, groupPrefix)
		if !found || id == "" || strings.Contains(id, "/") {
			return nil, ""
		}
		r.SetPathValue("id", id)
		rt = s.group
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		h = rt.get
	case http.MethodPost:
		h = rt.post
	}
	return h, rt.allow
}

// target returns the virtual time matching the scaled wall clock — where
// every group's clock should be by now. Callers hold s.topo read-locked, so
// the origin cannot belong to a deployment other than the one they advance;
// within one deployment, domains never move backwards, so a stale target is
// harmless.
func (s *Server) target() sim.Time {
	c := s.clock.Load()
	elapsed := c.now().Sub(c.started).Seconds() * s.timeScale
	return sim.Time(elapsed * float64(sim.Second))
}

// wallRetryAfter renders a virtual-time backoff as a Retry-After header
// value: whole wall-clock seconds under the service's time scale, at
// least 1 so clients always get a usable hint.
func (s *Server) wallRetryAfter(d sim.Time) string {
	secs := math.Ceil(d.Seconds() / s.timeScale)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(int(secs))
}

// Install swaps in a re-consolidated deployment and its plan (§3c/§5.1: the
// periodic cycle re-groups flagged groups and places pending registrations).
// In-flight requests finish against the old topology; new requests see the
// new one. The wall-clock pacing origin resets so the fresh deployment's
// clocks start at zero, and pending registrations placed by the new plan are
// dropped from the queue.
func (s *Server) Install(dep *master.Deployment, plan *advisor.Plan) error {
	if dep == nil || plan == nil {
		return fmt.Errorf("service: nil deployment or plan")
	}
	// Origin and coalescers change with the topology, under its write lock:
	// an old origin would advance the fresh domains by the old deployment's
	// elapsed time, for good, and the lock waits out every in-flight leader.
	// The records cache keys on the deployment pointer, so it invalidates
	// itself.
	s.topo.Lock()
	s.dep = dep
	s.plan = plan
	now := s.clock.Load().now
	s.clock.Store(&clock{now: now, started: now()})
	s.coalescers.Range(func(g, _ any) bool {
		s.coalescers.Delete(g)
		return true
	})
	s.topo.Unlock()
	s.pendMu.Lock()
	kept := s.pending[:0]
	for _, p := range s.pending {
		if _, placed := dep.GroupFor(p.ID); !placed {
			kept = append(kept, p)
		}
	}
	s.pending = kept
	s.pendMu.Unlock()
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.topo.RLock()
	plane := s.dep.Plane()
	plane.AdvanceAll(s.target())
	now := plane.Now()
	s.topo.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"virtual_time": now.String(),
	})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID     string `json:"id"`
		Suite  string `json:"suite"`
		Linear bool   `json:"linear_scale_out"`
		SQL    string `json:"sql"`
	}
	var out []entry
	for _, cl := range s.cat.Classes() {
		out = append(out, entry{ID: cl.ID, Suite: cl.Suite.String(),
			Linear: cl.LinearScaleOut(), SQL: cl.SQL})
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePlan is a pure read: the plan is immutable once deployed, so no
// clock domain is touched and no submit is ever blocked.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.topo.RLock()
	plan := s.plan
	nodesUsed := s.dep.NodesUsed()
	s.topo.RUnlock()
	type group struct {
		ID        string   `json:"id"`
		Tenants   []string `json:"tenants"`
		A         int      `json:"a"`
		N1        int      `json:"n1"`
		U         int      `json:"u"`
		Nodes     int      `json:"nodes"`
		TTP       float64  `json:"ttp"`
		MaxActive int      `json:"max_active"`
	}
	out := struct {
		Algorithm      string     `json:"algorithm"`
		R              int        `json:"r"`
		P              float64    `json:"p"`
		RequestedNodes int        `json:"requested_nodes"`
		NodesUsed      int        `json:"nodes_used"`
		Effectiveness  float64    `json:"effectiveness"`
		Groups         []group    `json:"groups"`
		Excluded       []exclJSON `json:"excluded,omitempty"`
	}{
		Algorithm:      plan.Algorithm,
		R:              plan.Config.R,
		P:              plan.Config.P,
		RequestedNodes: plan.RequestedNodes,
		NodesUsed:      nodesUsed,
		Effectiveness:  plan.Effectiveness(),
	}
	for _, g := range plan.Groups {
		out.Groups = append(out.Groups, group{
			ID: g.ID, Tenants: g.TenantIDs,
			A: g.Design.A, N1: g.Design.N1, U: g.Design.U,
			Nodes: g.Design.TotalNodes(), TTP: g.TTP, MaxActive: g.MaxActive,
		})
	}
	for _, e := range plan.Excluded {
		out.Excluded = append(out.Excluded, exclJSON{e.TenantID, e.Reason, e.Nodes})
	}
	writeJSON(w, http.StatusOK, out)
}

type exclJSON struct {
	Tenant string `json:"tenant"`
	Reason string `json:"reason"`
	Nodes  int    `json:"nodes"`
}

type groupStats struct {
	ID            string  `json:"id"`
	Members       int     `json:"members"`
	ActiveTenants int     `json:"active_tenants"`
	RTTTP         float64 `json:"rt_ttp"`
	SLAAttainment float64 `json:"sla_attainment"`
	Routed        int64   `json:"routed"`
	Overflowed    int64   `json:"overflowed"`
	Instances     []struct {
		ID      string `json:"id"`
		Nodes   int    `json:"nodes"`
		State   string `json:"state"`
		Running int    `json:"running"`
	} `json:"instances"`
}

func toGroupStats(st runtime.Stats) groupStats {
	out := groupStats{
		ID:            st.Group,
		Members:       st.Members,
		ActiveTenants: st.ActiveTenants,
		RTTTP:         st.RTTTP,
		SLAAttainment: st.SLAAttainment,
		Routed:        st.Routed,
		Overflowed:    st.Overflowed,
	}
	for _, inst := range st.Instances {
		out.Instances = append(out.Instances, struct {
			ID      string `json:"id"`
			Nodes   int    `json:"nodes"`
			State   string `json:"state"`
			Running int    `json:"running"`
		}{inst.ID, inst.Nodes, inst.State.String(), inst.Running})
	}
	return out
}

func (s *Server) handleGroups(w http.ResponseWriter, r *http.Request) {
	s.topo.RLock()
	t := s.target()
	var out []groupStats
	for _, g := range s.dep.Groups() {
		out = append(out, toGroupStats(g.StatsAt(t)))
	}
	s.topo.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGroup(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.topo.RLock()
	t := s.target()
	var found *groupStats
	for _, g := range s.dep.Groups() {
		if g.Plan.ID == id {
			st := toGroupStats(g.StatsAt(t))
			found = &st
			break
		}
	}
	s.topo.RUnlock()
	if found == nil {
		writeErr(w, http.StatusNotFound, "no group %q", id)
		return
	}
	writeJSON(w, http.StatusOK, found)
}

// SubmitRequest is the body of POST /v1/queries. Exactly one of Query
// (a catalog class ID like "TPCH-Q1") or SQL (raw statement text, matched
// against the catalog templates or classified as ad-hoc — requirement R5)
// must be set.
type SubmitRequest struct {
	Tenant string `json:"tenant"`
	Query  string `json:"query,omitempty"`
	SQL    string `json:"sql,omitempty"`
	// BestEffort marks the query as droppable: during a brownout the
	// admission controller sheds best-effort traffic before it would ever
	// touch contract-abiding SLA traffic.
	BestEffort bool `json:"best_effort,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	wb := wireBufPool.Get().(*wireBuf)
	defer wb.release()
	if !readBody(w, r, wb, maxSubmitBody) {
		return
	}
	// req's strings alias wb.in: nothing below keeps one past this call.
	var req SubmitRequest
	if err := decodeSubmit(wb.in, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	class, template, err := s.classFor(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The hot path: resolve the tenant's group — and its interned ref — in
	// O(1) and take only that group's clock domain. Submits to other groups
	// do not contend, and concurrent submits to the same group coalesce into
	// shard-local batches (one domain lock, one Advance per batch).
	s.topo.RLock()
	g, ref, tenant, ok := s.dep.Plane().Lookup(req.Tenant)
	if !ok {
		s.topo.RUnlock()
		writeErr(w, http.StatusUnprocessableEntity, "tenant %s not deployed", req.Tenant)
		return
	}
	item := runtime.BatchItem{
		Tenant:     tenant,
		Class:      class,
		BestEffort: req.BestEffort,
	}
	if ref != runtime.NoTenantRef {
		item.Ref = ref
		item.HasRef = true
	}
	out := s.submitCoalesced(g, item)
	now := g.Now()
	s.topo.RUnlock()
	if out.Err != nil {
		f := s.classify(out.Err)
		if f.kind != "" {
			w.Header().Set("Retry-After", s.wallRetryAfter(f.backoff))
		}
		wb.out = appendFailure(wb.out[:0], &f)
		writeWire(w, f.status, wb.out)
		return
	}
	wb.out = appendAccepted(wb.out[:0], &outcome{tenant: tenant, class: class,
		template: template, db: out.DB, retries: out.Retries, at: now})
	writeWire(w, http.StatusAccepted, wb.out)
}

// handleRecords serves the completed-query log, sorted by submit time.
// (Sorting compares sim.Time, not the formatted string: string order broke
// past ten virtual days, e.g. "10d0:00:00.000" < "2d0:00:00.000".)
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	s.topo.RLock()
	t := s.target()
	var recs []monitor.QueryRecord
	if tenant == "" {
		recs = s.allRecords(t)
	} else {
		recs = s.tenantRecords(tenant, t)
	}
	s.topo.RUnlock()
	type rec struct {
		Tenant     string  `json:"tenant"`
		Query      string  `json:"query"`
		MPPDB      string  `json:"mppdb"`
		Submit     string  `json:"submit"`
		Finish     string  `json:"finish"`
		LatencySec float64 `json:"latency_sec"`
		Normalized float64 `json:"normalized"`
		SLAMet     bool    `json:"sla_met"`
	}
	out := make([]rec, 0, len(recs))
	for _, q := range recs {
		out = append(out, rec{
			Tenant: q.Tenant, Query: q.Class.ID, MPPDB: q.MPPDB,
			Submit: q.Submit.String(), Finish: q.Finish.String(),
			LatencySec: q.Latency().Seconds(),
			Normalized: q.Normalized(), SLAMet: q.SLAMet(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func bySubmit(a, b monitor.QueryRecord) int { return cmp.Compare(a.Submit, b.Submit) }

// allRecords returns every group's records as one sorted view the caller must
// not modify; s.topo is read-held. Gathering and sorting every record on
// every request is O(n log n) in the full history; the logs are append-only,
// so the view is cached and revalidated with one O(groups) count sweep — a
// hit costs no copy and no sort.
func (s *Server) allRecords(t sim.Time) []monitor.QueryRecord {
	dep := s.dep
	groups := dep.Groups()
	counts := make([]int, len(groups))
	for i, g := range groups {
		counts[i] = g.RecordCountAt(t)
	}
	rc := &s.recCache
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.dep != dep || !slices.Equal(rc.counts, counts) {
		// Fresh slice on every rebuild: readers of the previous cached view
		// may still be marshaling it outside the lock.
		recs := make([]monitor.QueryRecord, 0, sum(counts))
		for _, g := range groups {
			recs = g.AppendRecordsAt(recs, t)
		}
		slices.SortStableFunc(recs, bySubmit)
		rc.dep, rc.counts, rc.recs = dep, counts, recs
	}
	return rc.recs
}

// tenantRecords returns one tenant's records, sorted; s.topo is read-held. A
// tenant's queries run in its own group, so only that group's log is read,
// and the log filters by the tenant's ref — the same rows as filtering
// allRecords, without materialising and sorting everyone else's.
func (s *Server) tenantRecords(tenant string, t sim.Time) []monitor.QueryRecord {
	g, ok := s.dep.Plane().ForTenant(tenant)
	if !ok {
		return nil
	}
	recs := g.AppendTenantRecordsAt(nil, tenant, t)
	slices.SortStableFunc(recs, bySubmit)
	return recs
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req PendingTenant
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	if req.ID == "" || req.Nodes < 1 {
		writeErr(w, http.StatusBadRequest, "tenant needs id and nodes ≥ 1")
		return
	}
	s.pendMu.Lock()
	s.pending = append(s.pending, req)
	n := len(s.pending)
	s.pendMu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]any{
		"status":  "pending",
		"detail":  "tenant will be placed at the next (re)-consolidation cycle",
		"pending": n,
	})
}

func (s *Server) handlePending(w http.ResponseWriter, r *http.Request) {
	s.pendMu.Lock()
	out := append([]PendingTenant(nil), s.pending...)
	s.pendMu.Unlock()
	if out == nil {
		out = []PendingTenant{}
	}
	writeJSON(w, http.StatusOK, out)
}

// Pending returns a copy of the pending tenant registrations.
func (s *Server) Pending() []PendingTenant {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	return append([]PendingTenant(nil), s.pending...)
}

// SetClock overrides the wall clock (tests drive time deterministically).
func (s *Server) SetClock(now func() time.Time, started time.Time) {
	s.clock.Store(&clock{now: now, started: started})
}

// Records exposes the deployment's query records (used by examples).
func (s *Server) Records() []monitor.QueryRecord {
	s.topo.RLock()
	defer s.topo.RUnlock()
	return s.dep.Plane().Records()
}

// handleMetrics serves the deployment's metrics registry in the Prometheus
// text exposition format. Virtual time is advanced first so a scrape
// reflects everything that should have happened by now; the registry itself
// is internally synchronized, so it is read outside every lock.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.topo.RLock()
	s.dep.Plane().AdvanceAll(s.target())
	hub := s.dep.Telemetry()
	s.topo.RUnlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = hub.Registry.WritePrometheus(w)
}

// handleEvents returns the most recent SLA events, oldest first. ?n= bounds
// the count (default 100).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest, "bad n %q", q)
			return
		}
		n = v
	}
	s.topo.RLock()
	s.dep.Plane().AdvanceAll(s.target())
	hub := s.dep.Telemetry()
	s.topo.RUnlock()
	type eventJSON struct {
		Seq    uint64  `json:"seq"`
		At     string  `json:"at"`
		Type   string  `json:"type"`
		Group  string  `json:"group,omitempty"`
		Tenant string  `json:"tenant,omitempty"`
		MPPDB  string  `json:"mppdb,omitempty"`
		Value  float64 `json:"value,omitempty"`
		Detail string  `json:"detail,omitempty"`
	}
	events := hub.Events.Recent(n)
	out := make([]eventJSON, 0, len(events))
	for _, ev := range events {
		out = append(out, eventJSON{
			Seq: ev.Seq, At: ev.At.String(), Type: string(ev.Type),
			Group: ev.Group, Tenant: ev.Tenant, MPPDB: ev.MPPDB,
			Value: ev.Value, Detail: ev.Detail,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSLO reports per-tenant SLA attainment against the service guarantee
// P — the externally visible form of the SLA the paper sells.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	s.topo.RLock()
	s.dep.Plane().AdvanceAll(s.target())
	hub := s.dep.Telemetry()
	s.topo.RUnlock()
	type tenantJSON struct {
		Tenant          string  `json:"tenant"`
		Met             int64   `json:"met"`
		Missed          int64   `json:"missed"`
		Attainment      float64 `json:"attainment"`
		WorstNormalized float64 `json:"worst_normalized"`
		OK              bool    `json:"ok"`
		// Admission accounting: queries rejected over contract (429) and
		// shed without running (503). Attainment covers completed queries
		// only, so these surface overload pressure the SLA math cannot.
		Throttled int64 `json:"throttled,omitempty"`
		Shed      int64 `json:"shed,omitempty"`
	}
	// Per-tenant shed/throttle accounting from the groups' admission
	// controllers (lock-free reads; no clock domain touched).
	type admTally struct{ throttled, shed int64 }
	tallies := make(map[string]admTally)
	s.topo.RLock()
	for _, g := range s.dep.Groups() {
		if g.Admission == nil {
			continue
		}
		for _, st := range g.Admission.TenantStats() {
			if st.Throttled != 0 || st.Shed != 0 {
				tallies[st.Tenant] = admTally{throttled: st.Throttled, shed: st.Shed}
			}
		}
	}
	s.topo.RUnlock()
	rep := hub.SLA.Report()
	tenants := make([]tenantJSON, 0, len(rep))
	for _, tn := range rep {
		tj := tenantJSON{
			Tenant: tn.Tenant, Met: tn.Met, Missed: tn.Missed,
			Attainment: tn.Attainment, WorstNormalized: tn.WorstNormalized,
			OK: tn.OK,
		}
		if ad, ok := tallies[tn.Tenant]; ok {
			tj.Throttled, tj.Shed = ad.throttled, ad.shed
			delete(tallies, tn.Tenant)
		}
		tenants = append(tenants, tj)
	}
	// Tenants throttled or shed before completing a single query have no
	// SLA row yet; report them too, in deterministic order.
	rest := make([]string, 0, len(tallies))
	for id := range tallies {
		rest = append(rest, id)
	}
	sort.Strings(rest)
	for _, id := range rest {
		ad := tallies[id]
		tenants = append(tenants, tenantJSON{
			Tenant: id, Attainment: 1, OK: true,
			Throttled: ad.throttled, Shed: ad.shed,
		})
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Tenant < tenants[j].Tenant })
	resp := map[string]any{
		"p":                  hub.SLA.P(),
		"overall_attainment": hub.SLA.Overall(),
		"tenants":            tenants,
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAdmission exposes the groups' admission state: brownout level,
// queue depth, and per-tenant contract accounting. It is a pure lock-free
// read — no clock domain is advanced or locked — so it stays responsive
// even while groups are overloaded.
func (s *Server) handleAdmission(w http.ResponseWriter, r *http.Request) {
	s.topo.RLock()
	groups := make([]admission.Snapshot, 0)
	for _, g := range s.dep.Groups() {
		if g.Admission == nil {
			continue
		}
		snap := g.Admission.Snapshot()
		snap.SheddingOnly = g.SheddingOnly()
		groups = append(groups, snap)
	}
	s.topo.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": len(groups) > 0,
		"groups":  groups,
	})
}

// handlePool reports the shared node pool: totals by state, the per-domain
// breakdown with down markers, and every owner's footprint. Virtual time is
// advanced first so reimage and recovery transitions due by now have fired.
func (s *Server) handlePool(w http.ResponseWriter, r *http.Request) {
	s.topo.RLock()
	s.dep.Plane().AdvanceAll(s.target())
	snap := s.dep.Pool().Snapshot()
	s.topo.RUnlock()
	writeJSON(w, http.StatusOK, snap)
}

// recoveryGroup is one group's failure-resilience snapshot for
// GET /v1/recovery. Each crash event carries its retry-cycle state (attempt
// count, armed backoff, next attempt, cool-down deadline, triaged flag).
type recoveryGroup struct {
	Group       string               `json:"group"`
	CrashEvents []recovery.Event     `json:"crash_events"`
	CrashActive int                  `json:"crash_in_progress"`
	GrayEvents  []recovery.GrayEvent `json:"gray_events"`
	GrayActive  int                  `json:"gray_in_progress"`
	Hedged      int64                `json:"hedged"`
	HedgeWins   int64                `json:"hedge_peer_wins"`
	Quarantined int                  `json:"quarantined"`
}

// triageStatus is the cluster scarcity allocator's view for GET /v1/recovery.
type triageStatus struct {
	Enqueued int                    `json:"enqueued"`
	Granted  int                    `json:"granted"`
	Queued   []recovery.TriageClaim `json:"queued"`
}

// handleRecovery reports the deployment's failure-resilience state: per-group
// crash-recovery events (node loss → replacement), gray fail-slow episodes
// with their hedge → drain ladder outcomes, the router's hedge tallies, and
// the scarcity triage queue when armed. Each group's state is read under its
// clock domain, advanced to now so due detector beats have fired.
func (s *Server) handleRecovery(w http.ResponseWriter, r *http.Request) {
	s.topo.RLock()
	t := s.target()
	armed := false
	groups := make([]recoveryGroup, 0)
	for _, g := range s.dep.Groups() {
		rg := recoveryGroup{
			Group:       g.Plan.ID,
			CrashEvents: []recovery.Event{},
			GrayEvents:  []recovery.GrayEvent{},
		}
		g.Domain().Advance(t, func(*sim.Engine) {
			if g.Recovery != nil {
				armed = true
				rg.CrashEvents = g.Recovery.Events()
				rg.CrashActive = g.Recovery.InProgress()
			}
			if g.Gray != nil {
				armed = true
				rg.GrayEvents = g.Gray.Events()
				rg.GrayActive = g.Gray.InProgress()
			}
			rg.Hedged, rg.HedgeWins = g.Router.HedgeStats()
			rg.Quarantined = g.Router.Quarantined()
		})
		groups = append(groups, rg)
	}
	var tri *triageStatus
	if tq := s.dep.Triage(); tq != nil {
		armed = true
		tri = &triageStatus{Queued: tq.Queued()}
		tri.Enqueued, tri.Granted = tq.Stats()
	}
	s.topo.RUnlock()

	out := map[string]any{
		"enabled": armed,
		"groups":  groups,
	}
	if tri != nil {
		out["triage"] = tri
	}
	writeJSON(w, http.StatusOK, out)
}

// SetReconsolidationReport stores the report of the last offline
// re-consolidation cycle for GET /v1/reconsolidation.
func (s *Server) SetReconsolidationReport(rep *advisor.ReconsolidationReport) {
	s.reconMu.Lock()
	s.reconReport = rep
	s.reconMu.Unlock()
}

// handleReconsolidation surfaces the per-group keep/repack decisions of the
// last offline re-consolidation cycle's stored report.
func (s *Server) handleReconsolidation(w http.ResponseWriter, r *http.Request) {
	s.reconMu.Lock()
	rep := s.reconReport
	s.reconMu.Unlock()
	if rep == nil {
		writeErr(w, http.StatusNotFound, "no re-consolidation has run yet")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"source": "offline",
		"report": rep,
	})
}

// handleInvoices bills the metering period from the deployment's completed
// query records under the default tariff (§3's pricing model: requested
// nodes plus active usage). The period defaults to [0, now).
func (s *Server) handleInvoices(w http.ResponseWriter, r *http.Request) {
	s.topo.RLock()
	plane := s.dep.Plane()
	plane.AdvanceAll(s.target())
	now := plane.Now()
	recs := plane.Records()
	tenants := s.dep.Tenants()
	s.topo.RUnlock()
	if now <= 0 {
		writeErr(w, http.StatusUnprocessableEntity, "no metered time yet")
		return
	}
	meter, err := billing.NewMeter(billing.DefaultRates(), tenants)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err := meter.RecordAll(recs); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	invoices, err := meter.Invoices(0, now)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	type line struct {
		Tenant    string  `json:"tenant"`
		Nodes     int     `json:"nodes"`
		ActiveSec float64 `json:"active_sec"`
		Queries   int     `json:"queries"`
		Base      float64 `json:"base"`
		Usage     float64 `json:"usage"`
		Total     float64 `json:"total"`
	}
	out := make([]line, 0, len(invoices))
	for _, inv := range invoices {
		out = append(out, line{
			Tenant: inv.Tenant, Nodes: inv.Nodes,
			ActiveSec: inv.ActiveTime.Seconds(), Queries: inv.Queries,
			Base: inv.Base, Usage: inv.Usage, Total: inv.Total,
		})
	}
	writeJSON(w, http.StatusOK, out)
}
