package service_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	thrifty "repro"
	"repro/internal/service"
	"repro/internal/sim"
)

// The layer's own benchmarks: POST /v1/queries, and POST /v1/submit-batch
// with 64 queries, through (*service.Server).ServeHTTP on the repository
// benchmark's 200-tenant, 7-day deployment, driven the way its HTTP client
// drives them (benchmark/httpdrive.go): in-process, with one request, one
// body reader and one writer reused, and the wall clock set to each request's
// logged arrival time at time scale 1. A deployment serves the event list
// once, so the timer stops while a fresh one is deployed each time the list
// runs out. Profile the front end here:
//
//	go test -run '^$' -bench BenchmarkServeSubmit$ -benchtime 5s -cpuprofile cpu.prof ./internal/service

func BenchmarkServeSubmit(b *testing.B) { benchServe(b, 1) }

func BenchmarkServeSubmitBatch64(b *testing.B) { benchServe(b, 64) }

// BenchmarkServeSubmitParallel sends single POST /v1/queries from GOMAXPROCS
// clients at once, the way independent tenants reach the front door: client
// k of P owns the groups whose index is k mod P and sends their logged
// queries in order, so clients meet only where the server shares state. The
// wall clock is the furthest arrival any client has reached. One deployment
// serves the whole run; a client that runs out of queries replays its list a
// horizon later. Compare -cpu 1 with -cpu 2 for the front end's parallelism:
//
//	go test -run '^$' -bench BenchmarkServeSubmitParallel -cpu 1,2 ./internal/service
func BenchmarkServeSubmitParallel(b *testing.B) {
	loadServeBench(b)
	sb := &serveBench
	clients := runtime.GOMAXPROCS(0)
	groupOf := map[string]int{}
	for gi, g := range sb.plan.Groups {
		for _, id := range g.TenantIDs {
			groupOf[id] = gi
		}
	}
	own := make([][]benchRequest, clients)
	for _, q := range sb.events {
		k := groupOf[q.tenant] % clients
		own[k] = append(own[k], benchRequest{body: appendQuery(nil, q), at: q.at})
	}
	sys, err := thrifty.Deploy(sb.w, sb.plan, thrifty.DeployOptions{Immediate: true})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := service.New(sys.Deployment, sb.w.Catalog, sb.plan, service.Config{TimeScale: 1})
	if err != nil {
		b.Fatal(err)
	}
	origin := time.Unix(0, 0)
	var furthest atomic.Int64
	srv.SetClock(func() time.Time { return origin.Add(time.Duration(furthest.Load())) }, origin)
	var next atomic.Int64

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		reqs := own[int(next.Add(1)-1)%clients]
		req := httptest.NewRequest(http.MethodPost, "/v1/queries", nil)
		body := &reusedBody{}
		req.Body = body
		w := &lastWrite{hdr: make(http.Header)}
		for i := 0; pb.Next(); i++ {
			r := reqs[i%len(reqs)]
			at := int64(r.at + sim.Time(i/len(reqs))*sb.w.Horizon)
			for cur := furthest.Load(); at > cur && !furthest.CompareAndSwap(cur, at); cur = furthest.Load() {
			}
			body.Reset(r.body)
			w.status = 0
			srv.ServeHTTP(w, req)
			if w.status != http.StatusAccepted {
				b.Errorf("POST /v1/queries: status %d, body %s", w.status, w.body)
				return
			}
		}
	})
}

// serveBench is the set-up both benchmarks share: the testbed, its plan and
// its logged queries in arrival order.
var serveBench struct {
	once   sync.Once
	err    error
	w      *thrifty.Workload
	plan   *thrifty.Plan
	events []loggedQuery
}

type loggedQuery struct {
	at            sim.Time
	tenant, class string
}

func loadServeBench(b *testing.B) {
	sb := &serveBench
	sb.once.Do(func() {
		sb.w, sb.err = thrifty.GenerateWorkload(thrifty.WorkloadConfig{
			Tenants: 200, Days: 7, SessionsPerClass: 10, Seed: 1})
		if sb.err != nil {
			return
		}
		if sb.plan, sb.err = thrifty.PlanDeployment(sb.w, thrifty.DefaultPlanConfig()); sb.err != nil {
			return
		}
		deployed := map[string]bool{}
		for _, g := range sb.plan.Groups {
			for _, id := range g.TenantIDs {
				deployed[id] = true
			}
		}
		for _, tl := range sb.w.Logs {
			if !deployed[tl.Tenant.ID] {
				continue
			}
			for _, ref := range tl.Sessions {
				for _, ev := range ref.Log.Events {
					if at := ref.Start + ev.Offset; at >= 0 && at < sb.w.Horizon {
						sb.events = append(sb.events, loggedQuery{at, tl.Tenant.ID, ev.ClassID})
					}
				}
			}
		}
		sort.SliceStable(sb.events, func(i, j int) bool { return sb.events[i].at < sb.events[j].at })
	})
	if sb.err != nil {
		b.Fatal(sb.err)
	}
}

// benchRequest is one prepared write, sent at its last query's arrival.
type benchRequest struct {
	body []byte
	at   sim.Time
}

func appendQuery(b []byte, q loggedQuery) []byte {
	b = append(b, `{"tenant":`...)
	b = strconv.AppendQuote(b, q.tenant)
	b = append(b, `,"query":`...)
	b = strconv.AppendQuote(b, q.class)
	return append(b, '}')
}

// requests prepares the event list as single submits (size 1) or batches.
func requests(events []loggedQuery, size int) []benchRequest {
	var out []benchRequest
	for lo := 0; lo < len(events); lo += size {
		hi := min(lo+size, len(events))
		var body []byte
		if size == 1 {
			body = appendQuery(body, events[lo])
		} else {
			body = append(body, `{"queries":[`...)
			for i := lo; i < hi; i++ {
				if i > lo {
					body = append(body, ',')
				}
				body = appendQuery(body, events[i])
			}
			body = append(body, "]}"...)
		}
		out = append(out, benchRequest{body: body, at: events[hi-1].at})
	}
	return out
}

// lastWrite is the smallest ResponseWriter that still lets a benchmark check
// a response: the status and the last Write.
type lastWrite struct {
	hdr    http.Header
	status int
	body   []byte
}

func (w *lastWrite) Header() http.Header { return w.hdr }
func (w *lastWrite) WriteHeader(s int)   { w.status = s }
func (w *lastWrite) Write(p []byte) (int, error) {
	w.body = append(w.body[:0], p...)
	return len(p), nil
}

type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

func benchServe(b *testing.B, size int) {
	loadServeBench(b)
	sb := &serveBench
	reqs := requests(sb.events, size)
	// A batch answers 200 whatever its items did; every item must be accepted.
	path, want, suffix := "/v1/queries", http.StatusAccepted, []byte(nil)
	if size > 1 {
		path, want, suffix = "/v1/submit-batch", http.StatusOK, []byte(`"failed":0}`+"\n")
	}
	req := httptest.NewRequest(http.MethodPost, path, nil)
	body := &reusedBody{}
	req.Body = body
	w := &lastWrite{hdr: make(http.Header)}
	origin := time.Unix(0, 0)
	wall := origin
	var srv *service.Server

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(reqs)
		if k == 0 {
			b.StopTimer()
			sys, err := thrifty.Deploy(sb.w, sb.plan, thrifty.DeployOptions{Immediate: true})
			if err != nil {
				b.Fatal(err)
			}
			if srv, err = service.New(sys.Deployment, sb.w.Catalog, sb.plan, service.Config{TimeScale: 1}); err != nil {
				b.Fatal(err)
			}
			srv.SetClock(func() time.Time { return wall }, origin)
			b.StartTimer()
		}
		wall = origin.Add(time.Duration(reqs[k].at))
		body.Reset(reqs[k].body)
		w.status = 0
		srv.ServeHTTP(w, req)
		if w.status != want || !bytes.HasSuffix(w.body, suffix) {
			b.Fatalf("POST %s: status %d, body %s", path, w.status, w.body)
		}
	}
}
