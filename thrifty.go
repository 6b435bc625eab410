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
//     queries, optionally with lightweight elastic scaling armed.
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
	"repro/internal/recovery"
	"repro/internal/replay"
	"repro/internal/scaling"
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

// DefaultWorkloadConfig returns the paper's Table 7.1 defaults.
func DefaultWorkloadConfig(seed int64) WorkloadConfig {
	return WorkloadConfig{
		Tenants:          5000,
		Theta:            0.8,
		Sizes:            append([]int(nil), tenant.DefaultSizes...),
		Days:             30,
		SessionsPerClass: 100,
		Seed:             seed,
	}
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
// is the coordinator Replay drives beside them, for cross-group work a
// caller schedules before Replay — perturbations, or traffic of its own
// (replay.Attach). Its events fire after the groups' at equal instants.
type System struct {
	Engine     *sim.Engine
	Pool       *cluster.Pool
	Deployment *master.Deployment
	Plan       *Plan
	Workload   *Workload
}

// DeployOptions re-exports the Deployment Master's options: the pool shape
// (SpareNodes, Domains), provisioning (Immediate, ParallelLoad) and the
// opt-in subsystems (Recovery, Admission, Gray, Triage, NoSpread), each off
// — and replay byte-identical — at its zero value.
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

// TakeOver re-exports the §7.5 take-over injection spec.
type TakeOver = replay.TakeOver

// Failure re-exports the node-failure injection spec. Injected failures
// only break a node; detection and repair run autonomously through the
// §4.4 recovery controllers replay arms alongside them.
type Failure = replay.Failure

// ReplayReport re-exports the replay report.
type ReplayReport = replay.Report

// RecoveryConfig re-exports the autonomous recovery controller
// configuration (heartbeat interval, acquisition attempts, backoff).
type RecoveryConfig = recovery.Config

// DefaultRecoveryConfig returns 30 s heartbeats and 5 acquisition attempts
// backing off 1→16 min with an hour between cycles.
func DefaultRecoveryConfig() RecoveryConfig { return recovery.DefaultConfig() }

// GrayConfig re-exports the fail-slow detector configuration (sample window,
// confirm/clear beats, drain timing).
type GrayConfig = recovery.GrayConfig

// DefaultGrayConfig returns a 64-sample window, 3 confirm / 2 clear beats and
// a 10 min hedge-first grace before drain.
func DefaultGrayConfig() GrayConfig { return recovery.DefaultGrayConfig() }

// AdmissionConfig re-exports the overload-protection configuration
// (per-tenant contracts, queue bound, brownout cadence, strike limit).
type AdmissionConfig = admission.Config

// DefaultAdmissionConfig returns a 32-slot admission queue, 30 s brownout
// evaluation and an 8-strike policing limit.
func DefaultAdmissionConfig() AdmissionConfig { return admission.DefaultConfig() }

// Contract re-exports a tenant's contracted arrival process (token-bucket
// rate + burst).
type Contract = admission.Contract

// ScalerConfig re-exports the elastic scaler configuration.
type ScalerConfig = scaling.Config

// DefaultScalerConfig returns the thesis' scaler settings for the given
// guarantee and replication factor.
func DefaultScalerConfig(p float64, r int) ScalerConfig { return scaling.DefaultConfig(p, r) }

// Replay drives the system with its workload's logged queries: every
// tenant-group on its own clock domain, beside the coordinator Engine, in one
// deterministic order (byte-identical per seed).
func (s *System) Replay(opts ReplayOptions) (*ReplayReport, error) {
	return replay.Run(s.Engine, s.Deployment, s.Workload.Catalog, s.Workload.Logs, opts)
}

// ServeOptions re-exports the HTTP front end's configuration: the time scale,
// the /metrics switch and the submit retry policy.
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
