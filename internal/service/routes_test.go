package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestRoutesMatchServeMux checks the route table against the http.ServeMux it
// replaced, registered with the same patterns and stub handlers: for every
// registered path under every common method, and for near misses, the table
// picks the handler the mux would, or answers with the mux's status and Allow
// header. Two differences are deliberate and asserted as such: an unclean
// path gets 404 where the mux redirected with 301, and a 404 or 405 carries
// the API's JSON error body instead of the mux's plain text.
func TestRoutesMatchServeMux(t *testing.T) {
	base, _, _ := testServer(t)
	methods := []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut,
		http.MethodDelete, http.MethodPatch, http.MethodOptions}
	for _, metrics := range []bool{true, false} {
		s, err := New(base.dep, base.cat, base.plan, Config{DisableMetrics: !metrics})
		if err != nil {
			t.Fatal(err)
		}
		type registered struct {
			pattern, path string
			h             http.HandlerFunc
		}
		patterns := []registered{
			{"GET /healthz", "/healthz", s.handleHealth},
			{"GET /v1/catalog", "/v1/catalog", s.handleCatalog},
			{"GET /v1/plan", "/v1/plan", s.handlePlan},
			{"GET /v1/groups", "/v1/groups", s.handleGroups},
			{"GET /v1/groups/{id}", "/v1/groups/TG-0000", s.handleGroup},
			{"POST /v1/queries", "/v1/queries", s.handleSubmit},
			{"POST /v1/submit-batch", "/v1/submit-batch", s.handleSubmitBatch},
			{"GET /v1/records", "/v1/records", s.handleRecords},
			{"GET /v1/invoices", "/v1/invoices", s.handleInvoices},
			{"GET /v1/events", "/v1/events", s.handleEvents},
			{"GET /v1/slo", "/v1/slo", s.handleSLO},
			{"GET /v1/admission", "/v1/admission", s.handleAdmission},
			{"GET /v1/recovery", "/v1/recovery", s.handleRecovery},
			{"GET /v1/pool", "/v1/pool", s.handlePool},
		}
		if metrics {
			patterns = append(patterns, registered{"GET /metrics", "/metrics", s.handleMetrics})
		}
		mux := http.NewServeMux()
		byPattern := map[string]http.HandlerFunc{}
		var paths []string
		for _, p := range patterns {
			pattern := p.pattern
			mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("X-Pattern", pattern)
			})
			byPattern[pattern] = p.h
			paths = append(paths, p.path)
		}
		// The last three are not served: registering a tenant and reporting
		// a re-consolidation need a cycle the server does not run.
		paths = append(paths, "/v1/groups/", "/v1/groups/a/b", "/v1/queries/", "/v1/querie", "/",
			"/v1/tenants", "/v1/tenants/pending", "/v1/reconsolidation")
		if !metrics {
			paths = append(paths, "/metrics")
		}

		for _, path := range paths {
			for _, method := range methods {
				name := method + " " + path
				mreq := httptest.NewRequest(method, path, nil)
				mrec := httptest.NewRecorder()
				mux.ServeHTTP(mrec, mreq)
				req := httptest.NewRequest(method, path, nil)
				h, _ := s.handler(req)
				if pattern := mrec.Header().Get("X-Pattern"); pattern != "" {
					if h == nil || reflect.ValueOf(h).Pointer() != reflect.ValueOf(byPattern[pattern]).Pointer() {
						t.Errorf("metrics=%v %s: the table does not pick %q's handler", metrics, name, pattern)
					}
					if got, want := req.PathValue("id"), mreq.PathValue("id"); got != want {
						t.Errorf("metrics=%v %s: id %q, mux %q", metrics, name, got, want)
					}
					continue
				}
				if h != nil {
					t.Errorf("metrics=%v %s: the table routes what the mux answers %d", metrics, name, mrec.Code)
					continue
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
				if rec.Code != mrec.Code || rec.Header().Get("Allow") != mrec.Header().Get("Allow") {
					t.Errorf("metrics=%v %s: %d Allow %q, mux %d Allow %q", metrics, name,
						rec.Code, rec.Header().Get("Allow"), mrec.Code, mrec.Header().Get("Allow"))
				}
				checkJSONError(t, name, rec)
			}
		}

		// Unclean paths: the mux redirected them to the clean path, the table
		// does not know them.
		for _, path := range []string{"//v1/queries", "/v1/./slo"} {
			mrec := httptest.NewRecorder()
			mux.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, path, nil))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if mrec.Code != http.StatusMovedPermanently || rec.Code != http.StatusNotFound {
				t.Errorf("GET %s: mux %d (want 301), table %d (want 404)", path, mrec.Code, rec.Code)
			}
			checkJSONError(t, "GET "+path, rec)
		}
	}
}

// checkJSONError asserts that rec holds the API's error shape.
func checkJSONError(t *testing.T, name string, rec *httptest.ResponseRecorder) {
	t.Helper()
	var body map[string]string
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("%s: content type %q", name, ct)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Errorf("%s: body %q is not a JSON error (%v)", name, rec.Body.String(), err)
	}
}
