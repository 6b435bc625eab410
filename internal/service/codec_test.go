package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/advisor"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// The legacy* functions build the values the handlers handed to encoding/json
// before the codec existed; the golden tests demand the codec's bytes equal
// their encoding.

func legacyAccepted(o *outcome) map[string]any {
	return map[string]any{
		"tenant":       o.tenant,
		"query":        o.class.ID,
		"template":     o.template,
		"routed_to":    o.db,
		"retries":      o.retries,
		"submitted_at": o.at.String(),
	}
}

func legacyFailure(s *Server, err error) (int, string, map[string]any) {
	var ce *admission.ContractExceededError
	if errors.As(err, &ce) {
		return http.StatusTooManyRequests, s.wallRetryAfter(ce.RetryAfter), map[string]any{
			"error":               ce.Error(),
			"kind":                "contract_exceeded",
			"retry_after_virtual": ce.RetryAfter.String(),
			"brownout":            ce.Brownout,
		}
	}
	var se *admission.ShedError
	if errors.As(err, &se) {
		return http.StatusServiceUnavailable, s.wallRetryAfter(se.RetryAfter), map[string]any{
			"error":               se.Error(),
			"kind":                "shed",
			"reason":              se.Reason,
			"retry_after_virtual": se.RetryAfter.String(),
		}
	}
	var te *runtime.TimeoutError
	if errors.As(err, &te) {
		return http.StatusGatewayTimeout, s.wallRetryAfter(sim.Duration(s.retry.Backoff)), map[string]any{
			"error":    te.Error(),
			"kind":     "timeout",
			"attempts": te.Attempts,
		}
	}
	return http.StatusUnprocessableEntity, "", map[string]any{"error": err.Error()}
}

func legacyFillFailure(res *BatchResult, err error) {
	var ce *admission.ContractExceededError
	var se *admission.ShedError
	var te *runtime.TimeoutError
	switch {
	case errors.As(err, &ce):
		res.Status = http.StatusTooManyRequests
		res.Error = ce.Error()
		res.Kind = "contract_exceeded"
		res.RetryAfterVirtual = ce.RetryAfter.String()
		res.Brownout = ce.Brownout
	case errors.As(err, &se):
		res.Status = http.StatusServiceUnavailable
		res.Error = se.Error()
		res.Kind = "shed"
		res.Reason = se.Reason
		res.RetryAfterVirtual = se.RetryAfter.String()
	case errors.As(err, &te):
		res.Status = http.StatusGatewayTimeout
		res.Error = te.Error()
		res.Kind = "timeout"
		res.Attempts = te.Attempts
	default:
		res.Status = http.StatusUnprocessableEntity
		res.Error = err.Error()
	}
}

func encodeJSON(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// nasty are strings that exercise every escaping rule of encoding/json:
// HTML-sensitive bytes, quotes and backslashes, control characters with and
// without a short escape, DEL, U+2028/U+2029, valid multi-byte runes, U+FFFD
// itself, and invalid UTF-8 (lone continuation byte, truncated sequence,
// surrogate half encoded as UTF-8).
var nasty = []string{
	"", "T0001", `<script>&amp;</script>`, `a"b\c/d`, "tab\there\nnl\rcr\bbs\fff", "\x00\x01\x1f\x7f",
	"line\u2028sep\u2029par", "héllo wörld ✓ 𝄞", "\ufffd", "bad\x80utf", "trunc\xe2\x82", "\xed\xa0\x80", "\xff\xfe",
}

var failureCases = []error{
	&admission.ContractExceededError{Group: "TG1", Tenant: "t<1>", RetryAfter: 90 * sim.Second},
	&admission.ContractExceededError{Group: "TG1", Tenant: "t1", RetryAfter: 12*sim.Day + 5*sim.Millisecond, Brownout: true},
	&admission.ShedError{Group: "TG2", Tenant: "t2", Reason: admission.ShedBestEffort, RetryAfter: 30 * sim.Second},
	&admission.ShedError{Group: "TG2", Tenant: "t2", Reason: "", RetryAfter: 0},
	fmt.Errorf("wrapped: %w", &admission.ShedError{Group: "g", Tenant: "t", Reason: "a&b", RetryAfter: sim.Minute}),
	&runtime.TimeoutError{Group: "TG3", Tenant: "t3", Timeout: 15 * time.Second, Attempts: 2, Last: errors.New("no ready replica")},
	&runtime.TimeoutError{Group: "TG3", Tenant: "t3", Last: errors.New("\"quoted\"\n")},
	errors.New("router: tenant \"x\" <not> hosted & gone\xff"),
	errors.New(""),
}

func TestGoldenAccepted(t *testing.T) {
	cl, _ := queries.Default().ByID("TPCH-Q6")
	for _, s := range nasty {
		for _, o := range []outcome{
			{tenant: s, class: cl, template: true, db: "TG0-I1", at: 3*sim.Hour + 250*sim.Millisecond},
			{tenant: "t1", class: &queries.Class{ID: s}, db: s, retries: 3, at: 11 * sim.Day},
		} {
			if got, want := string(appendAccepted(nil, &o)), encodeJSON(t, legacyAccepted(&o)); got != want {
				t.Errorf("accepted body for %q:\n got %s want %s", s, got, want)
			}
		}
	}
}

func TestGoldenFailures(t *testing.T) {
	srv, _, _ := testServer(t)
	for _, err := range failureCases {
		status, retryAfter, body := legacyFailure(srv, err)
		f := srv.classify(err)
		if f.status != status {
			t.Errorf("%v: status %d, want %d", err, f.status, status)
		}
		if got := string(appendFailure(nil, &f)); got != encodeJSON(t, body) {
			t.Errorf("%v:\n got %s want %s", err, got, encodeJSON(t, body))
		}
		if (f.kind != "") != (retryAfter != "") || (retryAfter != "" && srv.wallRetryAfter(f.backoff) != retryAfter) {
			t.Errorf("%v: Retry-After from kind %q backoff %v, want %q", err, f.kind, f.backoff, retryAfter)
		}
	}
}

func TestGoldenBatchResponse(t *testing.T) {
	srv, _, _ := testServer(t)
	cl, _ := queries.Default().ByID("TPCH-Q6")
	adhoc := &queries.Class{ID: "ADHOC"}
	var results []outcome
	var want BatchSubmitResponse
	add := func(o outcome, r BatchResult) {
		results = append(results, o)
		want.Results = append(want.Results, r)
		if r.Status == http.StatusAccepted {
			want.Accepted++
		} else {
			want.Failed++
		}
	}
	at := 2*sim.Day + 7*sim.Second
	for _, s := range nasty {
		add(outcome{tenant: s, class: cl, template: true, db: "TG0-I0", at: at},
			BatchResult{Status: 202, Tenant: s, Query: cl.ID, Template: true, RoutedTo: "TG0-I0", SubmittedAt: at.String()})
		add(outcome{tenant: "t2", class: adhoc, db: s, retries: 2, at: 0},
			BatchResult{Status: 202, Tenant: "t2", Query: "ADHOC", RoutedTo: s, Retries: 2, SubmittedAt: sim.Time(0).String()})
		add(outcome{tenant: s, fail: failure{status: 400, msg: "unknown query class " + s}},
			BatchResult{Status: 400, Tenant: s, Error: "unknown query class " + s})
	}
	for _, err := range failureCases {
		r := BatchResult{Tenant: "t3"}
		legacyFillFailure(&r, err)
		// A failed item's class and template are set and must not show.
		add(outcome{tenant: "t3", class: cl, template: true, fail: srv.classify(err)}, r)
	}
	if got, want := string(appendBatchResponse(nil, results)), encodeJSON(t, want); got != want {
		t.Errorf("batch response:\n got %s want %s", got, want)
	}
	one := results[:1]
	if got, want := string(appendBatchResponse(nil, one)), encodeJSON(t, BatchSubmitResponse{Results: want.Results[:1], Accepted: 1}); got != want {
		t.Errorf("one-item response:\n got %s want %s", got, want)
	}
}

// TestGoldenSLO: the /v1/slo body is encoding/json's encoding of the map the
// handler built before the codec, for nasty tenant IDs, floats on both sides
// of encoding/json's exponent cut-offs and random ones, and every omitempty
// case.
func TestGoldenSLO(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, 0.999, 1.0 / 3, 2.5e-7, 1e-6, 9.99e-7, 1e-7, 123456789,
		1e20, 1e21, 1.5e22, -4e-10, math.MaxFloat64, math.SmallestNonzeroFloat64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		floats = append(floats, f, rng.Float64(), rng.Float64()*math.Pow(10, float64(rng.Intn(50)-25)))
	}
	var tenants []sloTenant
	for i, f := range floats {
		tenants = append(tenants, sloTenant{
			Tenant: nasty[i%len(nasty)], Met: int64(i) * 1e9, Missed: int64(i % 3),
			Attainment: f, WorstNormalized: floats[len(floats)-1-i], OK: i%2 == 0,
			Throttled: int64(i % 4 / 2), Shed: int64(i % 5 / 3),
		})
	}
	for _, ts := range [][]sloTenant{nil, tenants[:1], tenants} {
		for _, f := range floats[:16] {
			want := encodeJSON(t, map[string]any{
				"p":                  0.999,
				"overall_attainment": f,
				"tenants":            append(make([]sloTenant, 0), ts...),
			})
			if got := string(appendSLO(nil, 0.999, f, ts)); got != want {
				t.Fatalf("slo body with %d tenants, overall %v:\n got %s want %s", len(ts), f, got, want)
			}
		}
	}
}

// TestWireResponsesOverHTTP checks the codec's bodies as a client sees them:
// status, Content-Type, Retry-After, and bytes that encoding/json reads back.
func TestWireResponsesOverHTTP(t *testing.T) {
	_, ts, _ := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/queries", "application/json", strings.NewReader(`{"tenant":"t1","query":"TPCH-Q6"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var acc map[string]any
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if want := encodeJSON(t, acc); string(body) != want {
		t.Errorf("body %s, re-encoded %s", body, want)
	}
}

// TestBodyStrictness pins the two places the codec is stricter than the
// json.Decoder it replaced: data after the top-level value, and size.
func TestBodyStrictness(t *testing.T) {
	_, ts, _ := testServer(t)
	status := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	single := `{"tenant":"t1","query":"TPCH-Q6"}`
	batch := `{"queries":[` + single + `]}`
	pad := func(n int) string { return strings.Repeat(" ", n) }
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/queries", single + " \n", http.StatusAccepted},
		{"/v1/queries", single + " junk", http.StatusBadRequest},
		{"/v1/queries", single + single, http.StatusBadRequest},
		{"/v1/submit-batch", batch + "\t", http.StatusOK},
		{"/v1/submit-batch", batch + "]", http.StatusBadRequest},
		{"/v1/queries", single + pad(maxSubmitBody-len(single)), http.StatusAccepted},
		{"/v1/queries", single + pad(maxSubmitBody-len(single)+1), http.StatusRequestEntityTooLarge},
		{"/v1/submit-batch", batch + pad(maxSubmitBody), http.StatusOK},
		{"/v1/submit-batch", batch + pad(maxBatchBody-len(batch)+1), http.StatusRequestEntityTooLarge},
	} {
		if got := status(c.path, c.body); got != c.want {
			t.Errorf("POST %s with %d bytes (%.40q…): status %d, want %d", c.path, len(c.body), c.body, got, c.want)
		}
	}
	// Buffers that grew past the pooling limit are dropped on release.
	big := &wireBuf{in: make([]byte, 0, maxPooledBuf+1), out: make([]byte, 0, 16)}
	big.release()
	small := &wireBuf{in: make([]byte, 0, maxPooledBuf), out: make([]byte, 0, maxPooledBuf)}
	small.release()
	if big.in != nil || big.out != nil || small.in == nil || small.out == nil {
		t.Errorf("release: oversized kept=%v, pool-sized kept=%v; want false, true", big.in != nil, small.in != nil)
	}
}

type nopCloser struct{ *bytes.Reader }

func (nopCloser) Close() error { return nil }

type bodyWriter struct {
	hdr    http.Header
	status int
	last   []byte
}

func (w *bodyWriter) Header() http.Header { return w.hdr }
func (w *bodyWriter) WriteHeader(s int)   { w.status = s }
func (w *bodyWriter) Write(p []byte) (int, error) {
	w.last = append(w.last[:0], p...)
	return len(p), nil
}

// TestSubmitPathAllocations pins the allocation budget of the two write
// endpoints and of the runtime layer under them, driven the way
// benchmark/httpdrive.go drives them: ServeHTTP in-process with one request,
// one body reader and one writer, reused.
//
// At steady state nothing remains: measured with go1.24, a POST /v1/queries
// and a 64-query POST /v1/submit-batch allocate 0 times, the route table and
// SubmitBatchAt included (the table resolves the path with one map lookup and
// a method compare, SubmitBatchAt's two closures — attempt and the Advance
// callback — do not escape, so they live on its stack, and its list of
// retrying items stays nil while nothing retries). Before the codec the
// single path allocated 31 times a request and the batch 4.9 times a query,
// all of it in encoding/json, the map[string]any bodies, Time.String and
// Header().Set. The bounds below leave
// one allocation of slack per request for what is not this repository's:
// standard-library internals differ between Go releases. "Steady state" starts once the pools are warm;
// the tracer's ring has nothing to warm, a query's spans are plain stores
// into it. The bounds hold bare and as a flagless thriftyd deploys (admission
// armed beside the recovery every deployment has): each request's virtual
// hour runs 120 brownout ticks, which re-key one event and build no stats
// snapshot while the group is not shedding-only, and no heartbeat.
func TestSubmitPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, c := range []struct {
		name   string
		deploy func(*testing.T, []string) (*master.Deployment, *advisor.Plan)
	}{
		{"bare", deployTenants},
		{"flagless", func(t *testing.T, ids []string) (*master.Deployment, *advisor.Plan) {
			adm := admission.DefaultConfig()
			return deployWith(t, ids, master.Options{Immediate: true, ParallelLoad: true, Admission: &adm})
		}},
	} {
		t.Run(c.name, func(t *testing.T) { submitPathAllocations(t, c.deploy) })
	}
}

// submitPathAllocations is TestSubmitPathAllocations on one deployment.
func submitPathAllocations(t *testing.T, deploy func(*testing.T, []string) (*master.Deployment, *advisor.Plan)) {
	dep, plan := deploy(t, []string{"t1", "t2", "t3", "t4"})
	srv, err := New(dep, queries.Default(), plan, Config{TimeScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Virtual time moves an hour per request: every query has finished by the
	// next one, so the engine's event and slot pools stay warm and no backlog
	// of running queries grows.
	wall := time.Unix(0, 0)
	srv.SetClock(func() time.Time { wall = wall.Add(time.Hour); return wall }, time.Unix(0, 0))

	drive := func(path string, body []byte, wantStatus int) func() {
		req := httptest.NewRequest(http.MethodPost, path, nil)
		rd := bytes.NewReader(body)
		req.Body = nopCloser{rd}
		w := &bodyWriter{hdr: make(http.Header)}
		return func() {
			rd.Reset(body)
			w.status = 0
			srv.ServeHTTP(w, req)
			if w.status != wantStatus {
				t.Fatalf("POST %s: status %d, body %s", path, w.status, w.last)
			}
		}
	}

	single := drive("/v1/queries", []byte(`{"tenant":"t1","query":"TPCH-Q6"}`), http.StatusAccepted)
	for i := 0; i < 50; i++ {
		single()
	}
	if n := testing.AllocsPerRun(200, single); n > 1 {
		t.Errorf("POST /v1/queries: %v allocs per request, want <= 1", n)
	}

	const size = 64
	body := []byte(`{"queries":[`)
	for i := 0; i < size; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = fmt.Appendf(body, `{"tenant":"t%d","query":"TPCH-Q6"}`, i%4+1)
	}
	body = append(body, "]}"...)
	batch := drive("/v1/submit-batch", body, http.StatusOK)
	for i := 0; i < 50; i++ {
		batch()
	}
	if n := testing.AllocsPerRun(100, batch); n > 1 {
		t.Errorf("POST /v1/submit-batch: %v allocs per %d-query request, want <= 1", n, size)
	}

	// The runtime layer under both: BenchmarkRuntime_BatchSubmit reports 0
	// allocs/op and nothing asserted it.
	g, ref, tenant, ok := dep.Plane().Lookup("t1")
	if !ok {
		t.Fatal("t1 not deployed")
	}
	cl, _ := queries.Default().ByID("TPCH-Q6")
	items := make([]runtime.BatchItem, size)
	outs := make([]runtime.BatchOutcome, size)
	for i := range items {
		items[i] = runtime.BatchItem{Tenant: tenant, Ref: ref, HasRef: ref != runtime.NoTenantRef, Class: cl}
	}
	at := srv.target()
	rt := func() {
		at += sim.Hour
		g.SubmitBatchAt(at, items, outs, runtime.DefaultRetryPolicy())
	}
	for i := 0; i < 20; i++ {
		rt()
	}
	if n := testing.AllocsPerRun(50, rt); n != 0 {
		t.Errorf("SubmitBatchAt of %d: %v allocs, want 0", size, n)
	}
	for i := range outs {
		if outs[i].Err != nil {
			t.Fatalf("item %d: %v", i, outs[i].Err)
		}
	}
}
