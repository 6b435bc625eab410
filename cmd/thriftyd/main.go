// Command thriftyd runs the Thrifty MPPDB-as-a-Service front end: it
// generates a tenant population, plans and deploys the consolidated
// cluster, and serves the HTTP API (query submission, plan and group
// inspection, observability) over that one deployment until it exits.
//
// The execution substrate is the virtual-time MPPDB simulator, paced
// against the wall clock (default 60 virtual seconds per wall second).
//
// Observability: unless -metrics=false, GET /metrics serves the telemetry
// registry in Prometheus text format (routing decisions, in-flight queries,
// per-MPPDB service/sojourn histograms, RT-TTP, SLA counters);
// GET /v1/events serves the recent SLA events and GET /v1/slo the
// per-tenant SLA attainment against P.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// (including long scrapes and event reads) get up to 10 s to complete
// before the listener is torn down.
//
// Usage:
//
//	thriftyd -addr :8080 -tenants 200
//	curl -s localhost:8080/v1/plan | jq .
//	curl -s -XPOST localhost:8080/v1/queries -d '{"tenant":"T0000","query":"TPCH-Q1"}'
//	curl -s localhost:8080/metrics | grep thrifty_
//	curl -s localhost:8080/v1/slo | jq .
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	thrifty "repro"
)

// options is everything the command line decides. Flags that pick a field of
// a facade config bind straight onto it; the booleans below arm a subsystem
// with its Default*Config.
type options struct {
	addr     string
	workload thrifty.WorkloadConfig
	plan     thrifty.PlanConfig
	deploy   thrifty.DeployOptions
	serve    thrifty.ServeOptions

	metrics, admission bool
}

// flagSet declares thriftyd's flags over o.
func (o *options) flagSet() *flag.FlagSet {
	o.workload = thrifty.WorkloadConfig{SessionsPerClass: 10}
	o.plan = thrifty.DefaultPlanConfig()
	o.deploy = thrifty.DeployOptions{Immediate: true, ParallelLoad: true, SpareNodes: 64}

	fs := flag.NewFlagSet("thriftyd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.workload.Tenants, "tenants", 200, "number of tenants")
	fs.IntVar(&o.workload.Days, "days", 7, "history horizon used for planning")
	fs.Int64Var(&o.workload.Seed, "seed", 1, "random seed")
	fs.IntVar(&o.plan.R, "r", 3, "replication factor R")
	fs.Float64Var(&o.plan.P, "p", 0.999, "performance SLA guarantee P")
	fs.Float64Var(&o.serve.TimeScale, "timescale", 60, "virtual seconds per wall second")
	fs.BoolVar(&o.metrics, "metrics", true, "expose Prometheus text metrics at /metrics")
	fs.IntVar(&o.deploy.Domains, "domains", 1, "failure domains (racks/zones) the pool is split across; >1 enables spread-aware placement")
	fs.BoolVar(&o.admission, "admission", true, "arm overload protection per tenant-group (contract enforcement, brownout)")
	return fs
}

// build parses the command line, generates and plans the tenant population,
// deploys it with the subsystems the flags arm, and returns the live system
// with its unstarted HTTP server.
func build(args []string) (*thrifty.System, *http.Server, error) {
	var o options
	fs := o.flagSet()
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	o.serve.DisableMetrics = !o.metrics
	if o.admission {
		cfg := thrifty.DefaultAdmissionConfig()
		o.deploy.Admission = &cfg
	}

	fmt.Fprintf(os.Stderr, "thriftyd: generating %d tenants (%d-day history)...\n", o.workload.Tenants, o.workload.Days)
	w, err := thrifty.GenerateWorkload(o.workload)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "thriftyd: planning deployment (R=%d, P=%.4g%%)...\n", o.plan.R, 100*o.plan.P)
	start := time.Now()
	plan, err := thrifty.PlanDeployment(w, o.plan)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "thriftyd: %d groups on %d of %d requested nodes (%.1f%% saved) in %v\n",
		len(plan.Groups), plan.NodesUsed(), plan.RequestedNodes,
		100*plan.Effectiveness(), time.Since(start).Round(time.Millisecond))

	sys, err := thrifty.Deploy(w, plan, o.deploy)
	if err != nil {
		return nil, nil, err
	}
	h, err := sys.Handler(o.serve)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "thriftyd: deployed (time scale %g×, metrics %v, admission %v)\n",
		o.serve.TimeScale, o.metrics, o.admission)
	return sys, &http.Server{Addr: o.addr, Handler: h}, nil
}

func main() {
	_, srv, err := build(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fatal("%v", err)
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests so scrapes
	// and event reads are never cut off mid-response.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "thriftyd: serving MPPDBaaS on %s\n", srv.Addr)

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal("%v", err)
		}
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "thriftyd: shutting down (draining in-flight requests)...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fatal("shutdown: %v", err)
		}
	}
	fmt.Fprintln(os.Stderr, "thriftyd: bye")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "thriftyd: "+format+"\n", args...)
	os.Exit(1)
}
