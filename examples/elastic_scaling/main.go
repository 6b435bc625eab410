// Elastic scaling: the §7.5 / Figure 7.7 scenario. One tenant-group is
// deployed and its logged activity replayed; partway in we "take over" a
// tenant and submit queries continuously on its behalf. With the scaler
// armed, Thrifty detects the RT-TTP drop, identifies the over-active
// tenant, provisions a dedicated MPPDB (paying realistic startup +
// parallel-bulk-load time), and re-points the tenant — the group's RT-TTP
// recovers.
//
// The Fig 7.7 narrative below is reconstructed entirely from the telemetry
// subsystem: the timeline comes from the deployment's SLA-event stream (the
// same events GET /v1/events serves) and the closing per-tenant attainment
// from the SLA account behind GET /v1/slo — not from bespoke experiment
// bookkeeping.
//
//	go run ./examples/elastic_scaling
package main

import (
	"fmt"
	"log"
	"time"

	thrifty "repro"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	w, err := thrifty.GenerateWorkload(thrifty.WorkloadConfig{
		Tenants:          120,
		Days:             7,
		SessionsPerClass: 8,
		Seed:             11,
	})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := thrifty.PlanDeployment(w, thrifty.DefaultPlanConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Pick the biggest group and its first tenant as the victim.
	pick := plan.Groups[0]
	for _, g := range plan.Groups {
		if len(g.TenantIDs) > len(pick.TenantIDs) {
			pick = g
		}
	}
	victim := pick.TenantIDs[0]
	fmt.Printf("group %s: %d tenants on %d × %d-node MPPDBs; taking over %s at day 1\n",
		pick.ID, len(pick.TenantIDs), pick.Design.A, pick.Design.N1, victim)

	sys, err := thrifty.Deploy(w, plan, thrifty.DeployOptions{
		Immediate:    true,
		ParallelLoad: true,
		SpareNodes:   64,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Subscribe to the SLA-event stream before the replay starts, exactly
	// as a live dashboard would against /v1/events.
	events, cancel := sys.Telemetry().Events.Subscribe(8192)
	defer cancel()

	scaler := thrifty.DefaultScalerConfig(0.999, plan.Config.R)
	rep, err := sys.Replay(thrifty.ReplayOptions{
		From:        0,
		To:          4 * sim.Day,
		SampleEvery: 2 * time.Hour,
		Scaling:     &scaler,
		TakeOver: &thrifty.TakeOver{
			Tenant:   victim,
			Start:    sim.Day,
			Interval: 3 * time.Second,
			ClassID:  "TPCH-Q1",
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	cancel()

	fmt.Printf("\nRT-TTP timeline of %s:\n", pick.ID)
	for i, s := range rep.Samples[pick.ID] {
		if i%4 != 0 {
			continue
		}
		bar := int(60 * s.RTTTP)
		fmt.Printf("  %v  %.4f  %s\n", s.At, s.RTTTP, stars(bar))
	}

	// The Fig 7.7 story, narrated by the event stream: the take-over, the
	// accumulating SLA violations, the RT-TTP dip, the scaling trigger, and
	// the recovery once the dedicated MPPDB takes the victim's queries.
	// Violations are folded into counts so the timeline stays readable.
	// Violations and repeated retries (e.g. scaling_failed every check while
	// the pool stays exhausted) are folded into counts so it stays readable.
	fmt.Println("\nSLA-event timeline (from the telemetry stream):")
	violations, repeats, last := 0, 0, ""
	flush := func() {
		if violations > 0 {
			fmt.Printf("  ... %d SLA violation(s)\n", violations)
			violations = 0
		}
		if repeats > 0 {
			fmt.Printf("  ... repeated %d more time(s)\n", repeats)
			repeats = 0
		}
	}
	for ev := range events {
		if ev.Type == telemetry.EventSLAViolation {
			if repeats > 0 {
				fmt.Printf("  ... repeated %d more time(s)\n", repeats)
				repeats = 0
			}
			violations++
			continue
		}
		key := string(ev.Type) + "|" + ev.Group + "|" + ev.Detail
		if key == last && violations == 0 {
			repeats++
			continue
		}
		flush()
		last = key
		fmt.Printf("  %s\n", ev.String())
	}
	flush()

	fmt.Println("\nper-tenant SLA attainment (from the /v1/slo accounting):")
	ok := 0
	report := sys.Telemetry().SLA.Report()
	for _, slo := range report {
		if slo.OK {
			ok++
		}
		if slo.Tenant == victim {
			fmt.Printf("  victim %s: met %d missed %d attainment %.4f worst %.1f× target\n",
				slo.Tenant, slo.Met, slo.Missed, slo.Attainment, slo.WorstNormalized)
		}
	}
	fmt.Printf("  %d of %d tenants at per-query attainment ≥ P\n", ok, len(report))
	fmt.Printf("\n%d queries replayed, %.2f%% met their SLA (telemetry: %.2f%%)\n",
		len(rep.Records), 100*rep.SLAAttainment(), 100*sys.Telemetry().SLA.Overall())
}

func stars(n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = '#'
	}
	return string(s)
}
