// Package thrifty is the public API of Thrifty, a reproduction of
// "Parallel Analytics as a Service" (SIGMOD 2013): massively parallel
// processing database-as-a-service (MPPDBaaS) with tenant consolidation.
//
// Thrifty consolidates thousands of MPPDB tenants onto a shared cluster
// while guaranteeing, for P% of time, that each tenant's queries run as fast
// as on its own dedicated machines. The pipeline is:
//
//  1. GenerateWorkload — build the §7.1 testbed: per-size-class session
//     logs and composed multi-day tenant activity logs;
//  2. PlanDeployment — run the Deployment Advisor: tenant grouping
//     (the LIVBPwFC optimization), cluster design, and tenant placement;
//  3. Deploy — execute the plan on a simulated cluster, producing live
//     MPPDB instances with per-group query routers and activity monitors;
//  4. Replay / Serve — drive the deployment with logged or interactive
//     queries, optionally with lightweight elastic scaling armed at deploy.
//
// Everything is deterministic from the seeds in the configs. The underlying
// packages (internal/...) expose the individual subsystems; this package
// wires the common paths.
package thrifty

import (
	"fmt"
	"net/http"

	"repro/internal/admission"
	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/queries"
	"repro/internal/replay"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// WorkloadConfig parameterizes testbed generation (§7.1).
type WorkloadConfig struct {
	// Tenants is the population size T (paper default: 5000).
	Tenants int
	// Theta is the Zipf skew of tenant sizes (default 0.8).
	Theta float64
	// Sizes are the requestable node counts (default 2/4/8/16/32).
	Sizes []int
	// Days is the log horizon (default 30).
	Days int
	// SessionsPerClass sizes the step-1 library (default 100).
	SessionsPerClass int
	// Variant selects the Fig 7.6 high-activity modifications.
	Variant workload.HighActivityVariant
	// Seed drives all randomness.
	Seed int64
}

// Workload is a generated multi-tenant testbed.
type Workload struct {
	Catalog *queries.Catalog
	Library *workload.Library
	Logs    []*workload.TenantLog
	Horizon sim.Time
}

// Tenants returns the tenant index of the workload.
func (w *Workload) Tenants() map[string]*tenant.Tenant {
	out := make(map[string]*tenant.Tenant, len(w.Logs))
	for _, tl := range w.Logs {
		out[tl.Tenant.ID] = tl.Tenant
	}
	return out
}

// GenerateWorkload runs both steps of the paper's log generation.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) {
	if cfg.Tenants < 1 {
		return nil, fmt.Errorf("thrifty: %d tenants", cfg.Tenants)
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.8
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = append([]int(nil), tenant.DefaultSizes...)
	}
	if cfg.Days == 0 {
		cfg.Days = 30
	}
	if cfg.SessionsPerClass == 0 {
		cfg.SessionsPerClass = 100
	}
	cat := queries.Default()
	lib, err := workload.BuildLibrary(cat, cfg.Sizes, cfg.SessionsPerClass, cfg.Seed)
	if err != nil {
		return nil, err
	}
	logs, err := workload.ComposeVariant(lib, cat, cfg.Tenants, cfg.Theta, cfg.Sizes,
		cfg.Variant, cfg.Days, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Catalog: cat,
		Library: lib,
		Logs:    logs,
		Horizon: sim.Time(cfg.Days) * sim.Day,
	}, nil
}

// PlanConfig re-exports the Deployment Advisor configuration.
type PlanConfig = advisor.Config

// DefaultPlanConfig returns R=3, P=99.9%, E=3 s with the 2-step solver.
func DefaultPlanConfig() PlanConfig { return advisor.DefaultConfig() }

// Plan re-exports the deployment plan.
type Plan = advisor.Plan

// PlanDeployment computes cluster design and tenant placement for the
// workload.
func PlanDeployment(w *Workload, cfg PlanConfig) (*Plan, error) {
	adv, err := advisor.New(cfg)
	if err != nil {
		return nil, err
	}
	return adv.Plan(w.Logs, w.Horizon)
}

// ReconsolidationReport re-exports the advisor's cycle report.
type ReconsolidationReport = advisor.ReconsolidationReport

// Reconsolidate runs one (re)-consolidation cycle (§3c, §5.1): groups
// untouched by churn keep their placement; members of flagged groups,
// groups with departed tenants, and new tenants are re-grouped. The
// workload w carries the *current* population and fresh history.
func Reconsolidate(w *Workload, prev *Plan, cfg PlanConfig, flaggedGroups []string) (*Plan, *ReconsolidationReport, error) {
	adv, err := advisor.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return adv.Reconsolidate(advisor.ReconsolidationInput{
		Previous:      prev,
		Logs:          w.Logs,
		FlaggedGroups: flaggedGroups,
	}, w.Horizon)
}

// System is a deployed MPPDBaaS: the coordinator engine, node pool, and live
// deployment. Every tenant-group runs on a clock domain of its own; Engine
// is the coordinator a replay drives beside them, for cross-group work
// scheduled before the replay, such as a storm's perturbations. Its events
// fire after the groups' at equal instants, with no group running, so they
// may act on any group and the pool. Replay injects no fault: a run under
// crashes, a take-over or any other fault is internal/recovery/chaos's Run
// over the same Engine and Deployment.
type System struct {
	Engine     *sim.Engine
	Pool       *cluster.Pool
	Deployment *master.Deployment
	Plan       *Plan
	Workload   *Workload
}

// DeployOptions re-exports the Deployment Master's options: the pool shape
// (SpareNodes, Domains), provisioning (Immediate, ParallelLoad), the RT-TTP
// window (MonitorWindow) and the opt-in subsystems (Admission, Scaling,
// NoSpread), each off — and replay byte-identical — at its zero
// value. Every deployment arms §4.4 recovery, which schedules nothing until
// a fault fails a node.
type DeployOptions = master.Options

// Deploy brings the plan up on a fresh simulated cluster. An Admission config
// that carries no explicit Contracts gets them derived from the workload's
// logs.
func Deploy(w *Workload, plan *Plan, opts DeployOptions) (*System, error) {
	if opts.Admission != nil && opts.Admission.Contracts == nil {
		cfg := *opts.Admission
		cfg.Contracts = admission.ContractsFromLogs(w.Logs)
		opts.Admission = &cfg
	}
	pool := opts.NewPool(plan)
	dep, err := master.New(pool, opts).Deploy(plan, w.Tenants())
	if err != nil {
		return nil, err
	}
	return &System{Engine: sim.NewEngine(), Pool: pool, Deployment: dep, Plan: plan, Workload: w}, nil
}

// ReplayOptions re-exports the replay options.
type ReplayOptions = replay.Options

// ReplayReport re-exports the replay report.
type ReplayReport = replay.Report

// AdmissionConfig re-exports the overload-protection configuration: the
// per-tenant contracts and the brownout cadence. Every controller's strike
// limit (8) is a constant.
type AdmissionConfig = admission.Config

// DefaultAdmissionConfig returns a 30 s brownout evaluation and no contracts
// (Deploy derives them from the workload's logs).
func DefaultAdmissionConfig() AdmissionConfig { return admission.DefaultConfig() }

// Contract re-exports a tenant's contracted arrival process (token-bucket
// rate + burst).
type Contract = admission.Contract

// Replay drives the system with its workload's logged queries: every
// tenant-group on its own clock domain, beside the coordinator Engine, in one
// deterministic order (byte-identical per seed at any GOMAXPROCS).
func (s *System) Replay(opts ReplayOptions) (*ReplayReport, error) {
	return replay.Run(s.Engine, s.Deployment, s.Workload.Catalog, s.Workload.Logs, opts)
}

// ServeOptions re-exports the HTTP front end's configuration: the time scale
// and the /metrics switch.
type ServeOptions = service.Config

// Handler returns the MPPDBaaS HTTP API over the system. Submits to
// different tenant-groups proceed in parallel.
func (s *System) Handler(opts ServeOptions) (http.Handler, error) {
	srv, err := service.New(s.Deployment, s.Workload.Catalog, s.Plan, opts)
	if err != nil {
		return nil, err
	}
	return srv, nil
}

// Telemetry returns the system's telemetry hub: the metrics registry, query
// tracer, SLA-event stream, and per-tenant SLA accounting every subsystem
// reports into.
func (s *System) Telemetry() *telemetry.Hub { return s.Deployment.Telemetry() }
