// Routing service: run the MPPDBaaS HTTP front end in-process, submit
// queries for several tenants over HTTP, and inspect where the TDD router
// placed them and how they performed.
//
//	go run ./examples/routing_service
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	thrifty "repro"
	"repro/internal/service"
)

func main() {
	w, err := thrifty.GenerateWorkload(thrifty.WorkloadConfig{
		Tenants:          30,
		Days:             7,
		SessionsPerClass: 6,
		Seed:             3,
	})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := thrifty.PlanDeployment(w, thrifty.DefaultPlanConfig())
	if err != nil {
		log.Fatal(err)
	}
	sys, err := thrifty.Deploy(w, plan, thrifty.DeployOptions{Immediate: true, SpareNodes: 8})
	if err != nil {
		log.Fatal(err)
	}
	// 600× time scale: a ~5 s analytical query completes in ~8 ms of wall
	// time, so this demo finishes quickly.
	h, err := sys.Handler(thrifty.ServeOptions{TimeScale: 600})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	fmt.Println("MPPDBaaS serving on", srv.URL)

	// Inspect the plan.
	var planOut struct {
		NodesUsed      int     `json:"nodes_used"`
		RequestedNodes int     `json:"requested_nodes"`
		Effectiveness  float64 `json:"effectiveness"`
	}
	getJSON(srv.URL+"/v1/plan", &planOut)
	fmt.Printf("plan: %d of %d nodes (%.1f%% saved)\n\n",
		planOut.NodesUsed, planOut.RequestedNodes, 100*planOut.Effectiveness)

	// Submit queries for three tenants.
	tenants := []string{"T0000", "T0001", "T0002"}
	for _, tn := range tenants {
		var acc map[string]any
		postJSON(srv.URL+"/v1/queries", service.SubmitRequest{Tenant: tn, Query: "TPCH-Q1"}, &acc)
		fmt.Printf("%s: TPCH-Q1 routed to %v\n", tn, acc["routed_to"])
	}

	// Wait a moment of wall time so the virtual clock advances past the
	// query completions, then fetch the records.
	time.Sleep(300 * time.Millisecond)
	fmt.Println()
	for _, tn := range tenants {
		var recs []struct {
			Query      string  `json:"query"`
			MPPDB      string  `json:"mppdb"`
			LatencySec float64 `json:"latency_sec"`
			Normalized float64 `json:"normalized"`
			SLAMet     bool    `json:"sla_met"`
		}
		getJSON(srv.URL+"/v1/records?tenant="+tn, &recs)
		for _, r := range recs {
			fmt.Printf("%s: %s on %s took %.1fs (%.2f× SLA target, met=%v)\n",
				tn, r.Query, r.MPPDB, r.LatencySec, r.Normalized, r.SLAMet)
		}
	}
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func postJSON(url string, body, out any) {
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
