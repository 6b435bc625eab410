// Command thrifty-advisor computes a deployment plan — cluster design plus
// tenant placement — from tenant activity logs (thesis §3b), using either
// the two-step tenant-grouping heuristic or the FFD baseline.
//
// Usage:
//
//	thrifty-loggen -tenants 2000 -o logs.json
//	thrifty-advisor -logs logs.json -r 3 -p 0.999
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/advisor"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		logsPath = flag.String("logs", "", "tenant logs JSON from thrifty-loggen (required)")
		r        = flag.Int("r", 3, "replication factor R")
		p        = flag.Float64("p", 0.999, "performance SLA guarantee P in (0,1]")
		epochSec = flag.Float64("epoch", 3, "epoch size E in seconds")
		algo     = flag.String("algo", "2-step", `grouping algorithm: "2-step" or "ffd"`)
		uextra   = flag.Int("uextra", 0, "extra nodes for every tuning MPPDB G0 (manual tuning, §6)")
		verbose  = flag.Bool("v", false, "print every tenant-group")
	)
	flag.Parse()
	if *logsPath == "" {
		fatal("-logs is required")
	}
	f, err := os.Open(*logsPath)
	if err != nil {
		fatal("%v", err)
	}
	logs, days, err := workload.ReadJSON(f)
	f.Close()
	if err != nil {
		fatal("%v", err)
	}

	cfg := advisor.DefaultConfig()
	cfg.R = *r
	cfg.P = *p
	cfg.Epoch = sim.Time(*epochSec * float64(sim.Second))
	cfg.UExtra = *uextra
	switch *algo {
	case "2-step":
		cfg.Algorithm = advisor.TwoStep
	case "ffd":
		cfg.Algorithm = advisor.FFD
	default:
		fatal("unknown algorithm %q", *algo)
	}
	adv, err := advisor.New(cfg)
	if err != nil {
		fatal("%v", err)
	}
	start := time.Now()
	plan, err := adv.Plan(logs, sim.Time(days)*sim.Day)
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("deployment plan (%s, R=%d, P=%.4g%%, E=%gs)\n",
		plan.Algorithm, cfg.R, 100*cfg.P, *epochSec)
	fmt.Printf("  tenants consolidated:    %d (+%d excluded)\n",
		len(logs)-len(plan.Excluded), len(plan.Excluded))
	fmt.Printf("  nodes requested:         %d\n", plan.RequestedNodes)
	fmt.Printf("  nodes used:              %d (%.1f%% of requested)\n",
		plan.NodesUsed(), 100*float64(plan.NodesUsed())/float64(max(plan.RequestedNodes, 1)))
	fmt.Printf("  consolidation saving:    %.1f%%\n", 100*plan.Effectiveness())
	fmt.Printf("  tenant-groups:           %d (mean %.1f tenants)\n",
		len(plan.Groups), plan.MeanGroupSize())
	fmt.Printf("  planning time:           %v\n", time.Since(start).Round(time.Millisecond))

	if len(plan.Excluded) > 0 {
		fmt.Println("excluded tenants (dedicated service plan):")
		for _, e := range plan.Excluded {
			fmt.Printf("  %-8s %s\n", e.TenantID, e.Reason)
		}
	}
	if *verbose {
		groups := append([]advisor.PlannedGroup(nil), plan.Groups...)
		sort.Slice(groups, func(i, j int) bool { return groups[i].ID < groups[j].ID })
		for _, g := range groups {
			fmt.Printf("%s: A=%d × %d-node MPPDBs (U=%d), %d tenants, TTP=%.4f, peak %d active\n",
				g.ID, g.Design.A, g.Design.N1, g.Design.U, len(g.TenantIDs), g.TTP, g.MaxActive)
			fmt.Printf("   tenants: %v\n", g.TenantIDs)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "thrifty-advisor: "+format+"\n", args...)
	os.Exit(1)
}
