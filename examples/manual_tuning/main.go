// Manual tuning (§6): instead of letting elastic scaling start a whole new
// MPPDB for a marginal SLA dip, the administrator widens the tuning MPPDB
// G₀ by a couple of nodes (U = n₁ + k). Overflow queries — the ones routed
// to a busy G₀ when more than A tenants are active — then run with extra
// parallelism and can still meet their SLA empirically (the paper's
// "point C" effect from Fig 1.1b).
//
// This example deploys the same tenant-group twice, with U = n₁ and with
// U = n₁ + 4, drives it into overflow with a take-over (the chaos.TakeOver
// fault value, replayed by chaos.Run), and compares the overflow queries'
// outcomes.
//
//	go run ./examples/manual_tuning
package main

import (
	"fmt"
	"log"
	"time"

	thrifty "repro"
	"repro/internal/recovery/chaos"
	"repro/internal/sim"
)

func main() {
	for _, uextra := range []int{0, 4} {
		w, err := thrifty.GenerateWorkload(thrifty.WorkloadConfig{
			Tenants:          120,
			Days:             5,
			SessionsPerClass: 8,
			Seed:             21,
		})
		if err != nil {
			log.Fatal(err)
		}
		pcfg := thrifty.DefaultPlanConfig()
		pcfg.UExtra = uextra
		plan, err := thrifty.PlanDeployment(w, pcfg)
		if err != nil {
			log.Fatal(err)
		}
		// Biggest group, hammered tenant.
		pick := plan.Groups[0]
		for _, g := range plan.Groups {
			if len(g.TenantIDs) > len(pick.TenantIDs) {
				pick = g
			}
		}
		sys, err := thrifty.Deploy(w, plan, thrifty.DeployOptions{Immediate: true, SpareNodes: 16})
		if err != nil {
			log.Fatal(err)
		}
		res, err := chaos.Run(sys.Engine, sys.Deployment, w.Catalog, w.Logs, chaos.Config{
			Window: chaos.Window{To: 3 * sim.Day},
			Faults: []chaos.Fault{chaos.TakeOver{
				Tenant:   pick.TenantIDs[0],
				Start:    12 * sim.Hour,
				Interval: 3 * time.Second,
			}},
		})
		if err != nil {
			log.Fatal(err)
		}
		// How did the *other* tenants' queries on G₀ fare? (The hammered
		// tenant's own queries contend with themselves by design.)
		victim := pick.TenantIDs[0]
		for _, g := range sys.Deployment.Groups() {
			if g.Plan.ID != pick.ID {
				continue
			}
			var onG0, missed int
			// Records materialises the monitor's log into a slice of our own.
			for _, r := range g.Monitor.Records() {
				if r.Tenant == victim || r.MPPDB != g.Instances[0].ID() {
					continue
				}
				onG0++
				if !r.SLAMet() {
					missed++
				}
			}
			fmt.Printf("U = n₁+%d (G₀ has %d nodes): %d bystander queries ran on G₀, "+
				"%d missed their SLA; group attainment %.2f%%\n",
				uextra, g.Plan.Design.U, onG0, missed, 100*res.Report.SLAAttainment())
		}
	}
	fmt.Println("\nWith the wider G₀, queries that overflow to a busy tuning MPPDB get")
	fmt.Println("more parallelism and more of them still meet the latency SLA —")
	fmt.Println("the administrator traded 4 nodes for fewer elastic-scaling events.")
}
