// Package service exposes a Thrifty deployment as an MPPDB-as-a-Service
// HTTP front end: tenants submit queries (which the Query Router places per
// Algorithm 1), operators inspect the deployment plan, per-group run-time
// statistics, completed query records, and scaling events. The deployment's
// telemetry hub is exposed too: GET /metrics (Prometheus text),
// GET /v1/events (recent SLA events), and GET /v1/slo (per-tenant SLA
// attainment against the guarantee P). GET /v1/pool snapshots the shared
// node pool (state counts, per-domain breakdown, per-owner footprint) and
// GET /v1/recovery the failure-resilience state: crash lifecycles with their
// triage positions, quarantines, and the scarcity triage queue.
//
// The execution substrate is the virtual-time simulator; the service paces
// it against the wall clock with a configurable time-scale factor (virtual
// seconds per wall second), advancing clocks on every request. At the
// default 60× scale, a one-minute analytical query completes in one wall
// second — fast enough to demo, slow enough to watch queries overlap.
//
// Concurrency is per tenant-group: the front door resolves a submit to its
// group in O(1) and takes only that group's clock domain, so submits to
// different groups proceed fully in parallel, and submits to one group take
// its domain in turn. There is no server-wide lock: a Server serves the
// deployment it was built with for its whole life (the §3c
// re-consolidation cycle runs offline, in thrifty.Reconsolidate), so the
// deployment, the plan and the route table are read without one, and the
// pacing origin is an immutable value behind an atomic pointer. Pure-read
// endpoints (catalog, plan, admission) touch no clock domain at all, and the
// telemetry endpoints read the hub, which is internally synchronized,
// outside every lock.
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
	dep  *master.Deployment
	plan *advisor.Plan

	cat       *queries.Catalog
	timeScale float64
	retry     runtime.RetryPolicy

	// clock is the wall-clock pacing origin, replaced whole by SetClock.
	clock atomic.Pointer[clock]

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

// Config parameterizes the server.
type Config struct {
	// TimeScale is virtual seconds advanced per wall-clock second
	// (default 60).
	TimeScale float64
	// DisableMetrics removes the Prometheus GET /metrics endpoint (the
	// observability JSON endpoints under /v1 stay).
	DisableMetrics bool
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
	s := &Server{
		dep:       dep,
		cat:       cat,
		plan:      plan,
		timeScale: cfg.TimeScale,
		retry:     runtime.DefaultRetryPolicy(),
		matcher:   sqlmatch.New(cat),
	}
	s.clock.Store(&clock{now: time.Now, started: time.Now()})
	get := func(h http.HandlerFunc) route { return route{get: h, allow: "GET, HEAD"} }
	post := func(h http.HandlerFunc) route { return route{post: h, allow: "POST"} }
	s.routes = map[string]route{
		"/healthz":         get(s.handleHealth),
		"/v1/catalog":      get(s.handleCatalog),
		"/v1/plan":         get(s.handlePlan),
		"/v1/groups":       get(s.handleGroups),
		"/v1/queries":      post(s.handleSubmit),
		"/v1/submit-batch": post(s.handleSubmitBatch),
		"/v1/records":      get(s.handleRecords),
		"/v1/invoices":     get(s.handleInvoices),
		"/v1/events":       get(s.handleEvents),
		"/v1/slo":          get(s.handleSLO),
		"/v1/admission":    get(s.handleAdmission),
		"/v1/recovery":     get(s.handleRecovery),
		"/v1/pool":         get(s.handlePool),
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
// every group's clock should be by now. Domains never move backwards, so a
// stale target is harmless.
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	plane := s.dep.Plane()
	plane.AdvanceAll(s.target())
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"virtual_time": plane.Now().String(),
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
	plan := s.plan
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
		NodesUsed:      s.dep.NodesUsed(),
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
	t := s.target()
	var out []groupStats
	for _, g := range s.dep.Groups() {
		out = append(out, toGroupStats(g.StatsAt(t)))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGroup(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g, ok := s.dep.Plane().GroupByID(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no group %q", id)
		return
	}
	writeJSON(w, http.StatusOK, toGroupStats(g.StatsAt(s.target())))
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
	// O(1) and submit a one-item batch on that group's clock domain alone.
	// Submits to other groups do not contend; concurrent submits to the same
	// group take its domain in turn, as batches and reads do.
	g, ref, tenant, ok := s.dep.Plane().Lookup(req.Tenant)
	if !ok {
		writeErr(w, http.StatusUnprocessableEntity, "tenant %s not deployed", req.Tenant)
		return
	}
	items := [1]runtime.BatchItem{{
		Tenant:     tenant,
		Class:      class,
		BestEffort: req.BestEffort,
	}}
	if ref != runtime.NoTenantRef {
		items[0].Ref = ref
		items[0].HasRef = true
	}
	var outs [1]runtime.BatchOutcome
	g.SubmitBatchAt(s.target(), items[:], outs[:], s.retry)
	out := &outs[0]
	now := g.Now()
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
	t := s.target()
	var recs []monitor.QueryRecord
	if tenant == "" {
		recs = s.allRecords(t)
	} else {
		recs = s.tenantRecords(tenant, t)
	}
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

// allRecords returns every group's records as one view sorted by submit
// time.
func (s *Server) allRecords(t sim.Time) []monitor.QueryRecord {
	var recs []monitor.QueryRecord
	for _, g := range s.dep.Groups() {
		recs = g.AppendRecordsAt(recs, t)
	}
	slices.SortStableFunc(recs, bySubmit)
	return recs
}

// tenantRecords returns one tenant's records, sorted. A tenant's queries run in its own group, so only that group's log is read,
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

// SetClock overrides the wall clock (tests drive time deterministically).
func (s *Server) SetClock(now func() time.Time, started time.Time) {
	s.clock.Store(&clock{now: now, started: started})
}

// handleMetrics serves the deployment's metrics registry in the Prometheus
// text exposition format. Virtual time is advanced first so a scrape
// reflects everything that should have happened by now; the registry itself
// is internally synchronized, so it is read outside every lock.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.dep.Plane().AdvanceAll(s.target())
	hub := s.dep.Telemetry()
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
	s.dep.Plane().AdvanceAll(s.target())
	hub := s.dep.Telemetry()
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
	s.dep.Plane().AdvanceAll(s.target())
	hub := s.dep.Telemetry()
	// Per-tenant shed/throttle accounting from the groups' admission
	// controllers (lock-free reads; no clock domain touched).
	tallies := make(map[string]sloTenant)
	for _, g := range s.dep.Groups() {
		if g.Admission == nil {
			continue
		}
		for _, st := range g.Admission.TenantStats() {
			if st.Throttled != 0 || st.Shed != 0 {
				tallies[st.Tenant] = sloTenant{Tenant: st.Tenant, Attainment: 1, OK: true, Throttled: st.Throttled, Shed: st.Shed}
			}
		}
	}
	rep := hub.SLA.Report()
	tenants := make([]sloTenant, 0, len(rep))
	for _, tn := range rep {
		tj := sloTenant{
			Tenant: tn.Tenant, Met: tn.Met, Missed: tn.Missed,
			Attainment: tn.Attainment, WorstNormalized: tn.WorstNormalized,
			OK: tn.OK,
		}
		if ad, ok := tallies[tn.Tenant]; ok {
			tj.Throttled, tj.Shed = ad.Throttled, ad.Shed
			delete(tallies, tn.Tenant)
		}
		tenants = append(tenants, tj)
	}
	// Tenants throttled or shed before completing a single query have no
	// SLA row yet; report them too. Tenant IDs are unique, so the order is
	// deterministic.
	for _, tj := range tallies {
		tenants = append(tenants, tj)
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Tenant < tenants[j].Tenant })
	wb := wireBufPool.Get().(*wireBuf)
	defer wb.release()
	wb.out = appendSLO(wb.out[:0], hub.SLA.P(), hub.SLA.Overall(), tenants)
	writeWire(w, http.StatusOK, wb.out)
}

// sloTenant is one tenant's row of GET /v1/slo.
type sloTenant struct {
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

// handleAdmission exposes the groups' admission state: brownout level,
// queue depth, and per-tenant contract accounting. It is a pure lock-free
// read — no clock domain is advanced or locked — so it stays responsive
// even while groups are overloaded.
func (s *Server) handleAdmission(w http.ResponseWriter, r *http.Request) {
	groups := make([]admission.Snapshot, 0)
	for _, g := range s.dep.Groups() {
		if g.Admission == nil {
			continue
		}
		snap := g.Admission.Snapshot()
		snap.SheddingOnly = g.SheddingOnly()
		groups = append(groups, snap)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": len(groups) > 0,
		"groups":  groups,
	})
}

// handlePool reports the shared node pool: totals by state, the per-domain
// breakdown with down markers, and every owner's footprint. Virtual time is
// advanced first so reimage and recovery transitions due by now have fired.
func (s *Server) handlePool(w http.ResponseWriter, r *http.Request) {
	s.dep.Plane().AdvanceAll(s.target())
	writeJSON(w, http.StatusOK, s.dep.Pool().Snapshot())
}

// recoveryGroup is one group's failure-resilience snapshot for
// GET /v1/recovery. Each crash event carries its triage state (triaged flag,
// next poll).
type recoveryGroup struct {
	Group       string           `json:"group"`
	CrashEvents []recovery.Event `json:"crash_events"`
	CrashActive int              `json:"crash_in_progress"`
	Quarantined int              `json:"quarantined"`
}

// triageStatus is the cluster scarcity allocator's view for GET /v1/recovery.
type triageStatus struct {
	Enqueued int                    `json:"enqueued"`
	Granted  int                    `json:"granted"`
	Queued   []recovery.TriageClaim `json:"queued"`
}

// handleRecovery reports the deployment's failure-resilience state: per-group
// crash-recovery events (node loss → replacement), the instances
// quarantined from routing, and the scarcity triage queue. Each group's
// state is read under its clock domain, advanced to now so due heartbeats
// have fired.
func (s *Server) handleRecovery(w http.ResponseWriter, r *http.Request) {
	t := s.target()
	groups := make([]recoveryGroup, 0)
	for _, g := range s.dep.Groups() {
		rg := recoveryGroup{Group: g.Plan.ID}
		g.Domain().Advance(t, func(*sim.Engine) {
			rg.CrashEvents = g.Recovery.Events()
			rg.CrashActive = g.Recovery.InProgress()
			rg.Quarantined = g.Router.Quarantined()
		})
		groups = append(groups, rg)
	}
	tri := &triageStatus{Queued: s.dep.Triage().Queued()}
	tri.Enqueued, tri.Granted = s.dep.Triage().Stats()
	writeJSON(w, http.StatusOK, map[string]any{"groups": groups, "triage": tri})
}

// handleInvoices bills the metering period from the deployment's completed
// query records under the default tariff (§3's pricing model: requested
// nodes plus active usage). The period defaults to [0, now).
func (s *Server) handleInvoices(w http.ResponseWriter, r *http.Request) {
	plane := s.dep.Plane()
	plane.AdvanceAll(s.target())
	now := plane.Now()
	if now <= 0 {
		writeErr(w, http.StatusUnprocessableEntity, "no metered time yet")
		return
	}
	meter, err := billing.NewMeter(billing.DefaultRates(), s.dep.Tenants())
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err := meter.RecordAll(plane.Records()); err != nil {
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
