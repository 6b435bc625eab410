package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/queries"
)

// TestRecordsFilterEqualsFilteredAll pins that GET /v1/records?tenant=X, which
// reads only X's group, serves the rows of the unfiltered view whose tenant is
// X, byte for byte and in the same order — with interleaved submits over two
// groups, equal submit times (ties keep log order), and an unknown tenant (an
// empty array, not null).
func TestRecordsFilterEqualsFilteredAll(t *testing.T) {
	tenants := []string{"t1", "t2", "down", "t3"} // "down" gets a group of its own
	dep, plan := deployBatchMix(t, tenants, nil)
	g1, _ := dep.GroupFor("t1")
	g2, _ := dep.GroupFor("t2")
	if gd, _ := dep.GroupFor("down"); len(dep.Groups()) < 2 || g1 != g2 || g1 == gd {
		t.Fatalf("want t1 and t2 sharing a group and down in another; %d groups", len(dep.Groups()))
	}
	srv, err := New(dep, queries.Default(), plan, Config{TimeScale: 60})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Unix(0, 0)
	srv.SetClock(func() time.Time { return wall }, time.Unix(0, 0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	for round := 0; round < 6; round++ {
		for i, tn := range tenants {
			q := []string{"TPCH-Q6", "TPCH-Q1", "TPCH-Q14"}[(round+i)%3]
			if code := post(t, ts, "/v1/queries", SubmitRequest{Tenant: tn, Query: q}, nil); code != http.StatusAccepted {
				t.Fatalf("submit %s %s: status %d", tn, q, code)
			}
			if i%2 == 1 {
				wall = wall.Add(500 * time.Millisecond) // the two before share a submit time
			}
		}
	}
	wall = wall.Add(time.Hour)
	raw := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return b
	}
	var all []json.RawMessage
	if err := json.Unmarshal(raw("/v1/records"), &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 6*len(tenants) {
		t.Fatalf("%d records, want %d", len(all), 6*len(tenants))
	}
	for _, tn := range append(tenants, "ghost") {
		var rows [][]byte
		for _, r := range all {
			var row struct{ Tenant string }
			if err := json.Unmarshal(r, &row); err != nil {
				t.Fatal(err)
			}
			if row.Tenant == tn {
				rows = append(rows, r)
			}
		}
		want := "[" + string(bytes.Join(rows, []byte(","))) + "]\n"
		if got := string(raw("/v1/records?tenant=" + tn)); got != want {
			t.Errorf("tenant %s:\n got %s want %s", tn, got, want)
		}
	}
}
