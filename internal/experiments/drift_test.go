package experiments

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// Golden fingerprints of TestOnlineDeterminism's fixed-seed online run,
// captured on commit 26500ce (before drift's extra traffic and sub-world
// selection moved onto the shared replay driver and helper): the telemetry
// hash (SHA-256 of Events.Dump + Tracer.Dump) and the run's accounting, with
// attainment to 17 digits. Re-capture with
//
//	go test -run TestOnlineDeterminism -v ./internal/experiments | grep golden
const (
	goldenDriftTelemetry = "1506881d66bf402cb06674113afa62504e74b2d29f02b51326bd6f381935dba9"
	goldenDriftResult    = "{Ticks:144 LastTickAt:1d12:00:00.000 DeltaEpochs:9617 Drifts:1 Joins:1 Leaves:1 LocalMoves:1 Fallbacks:0 MigrationsStarted:2 MigrationsCutOver:2 MigrationsAborted:0 MigrationsPromoted:0 GroupsRetired:0 Groups:3 Tenants:46 Infeasible:0}|8182|0|8182|0.98985578098264482|T0091|[T0077]|[T0104]|2"
)

// driftTestCfg keeps the smoke fast enough for the -short -race gate: a
// half-day window with the full churn schedule compressed into it.
func driftTestCfg() DriftConfig {
	return DriftConfig{
		Window:        12 * sim.Hour,
		TickEvery:     15 * time.Minute,
		Joins:         1,
		Leaves:        1,
		JoinStart:     2 * sim.Hour,
		LeaveStart:    3 * sim.Hour,
		TakeOverStart: 4 * sim.Hour,
	}
}

// driftEnv widens the shared tiny env to two replay groups so local repair
// has somewhere to move tenants and the reserve groups supply joiners.
func driftEnv(t *testing.T) *Env {
	t.Helper()
	base := testEnv(t)
	env := &Env{Scale: base.Scale, Seed: base.Seed, Cat: base.Cat, Lib: base.Lib}
	env.Scale.ReplayGroups = 2
	return env
}

// TestDriftSmoke runs the full drift scenario — churn, activity shift,
// online repair with live migrations, oracle comparison — at tiny scale.
// Part of `make online-smoke` (with -race), so it must stay short-friendly.
func TestDriftSmoke(t *testing.T) {
	env := driftEnv(t)
	cfg := driftTestCfg()
	res, err := DriftOutcome(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Joins != 1 || res.Stats.Leaves != 1 {
		t.Errorf("churn processed: joins=%d leaves=%d, want 1/1", res.Stats.Joins, res.Stats.Leaves)
	}
	if res.Stats.Drifts == 0 {
		t.Error("the take-over victim's drift was never detected")
	}
	if res.Stats.MigrationsStarted == 0 || res.Stats.MigrationsCutOver == 0 {
		t.Errorf("no live migrations ran: %+v", res.Stats)
	}
	// The live-migration guarantee: every accepted query completed.
	if !res.NoDrop() {
		t.Errorf("dropped queries: %d accepted, %d completed",
			res.Submitted-res.SubmitErrors, res.Completed)
	}
	// The online loop must track the clairvoyant offline re-solve.
	if d := res.AttainmentDelta(); d > 0.01 {
		t.Errorf("online attainment %.4f is %.2f%% behind the oracle %.4f (budget 1%%)",
			res.OnlineAttainment, 100*d, res.OracleAttainment)
	}
	if res.Hash == "" {
		t.Error("no telemetry hash")
	}
}

// TestOnlineDeterminism replays the online half twice with the same seed:
// the telemetry dumps (events + trace) must be byte-identical — the online
// loop lives on the sim clock and introduces no nondeterminism.
func TestOnlineDeterminism(t *testing.T) {
	env := driftEnv(t)
	cfg := driftTestCfg()
	run := func() *DriftResult {
		w, err := buildDriftWorld(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runDriftOnline(env, cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Hash != b.Hash {
		t.Fatalf("same-seed online runs diverged:\n  %s\n  %s", a.Hash, b.Hash)
	}
	if a.Stats != b.Stats {
		t.Fatalf("same-seed stats diverged:\n  %+v\n  %+v", a.Stats, b.Stats)
	}
	if a.Submitted != b.Submitted || a.SubmitErrors != b.SubmitErrors || a.Completed != b.Completed {
		t.Fatalf("same-seed accounting diverged: %d/%d/%d vs %d/%d/%d",
			a.Submitted, a.SubmitErrors, a.Completed, b.Submitted, b.SubmitErrors, b.Completed)
	}
	result := fmt.Sprintf("%+v|%d|%d|%d|%.17g|%s|%v|%v|%d", a.Stats, a.Submitted, a.SubmitErrors,
		a.Completed, a.OnlineAttainment, a.Victim, a.Joined, a.Left, len(a.Migrations))
	t.Logf("golden drift telemetry: %s", a.Hash)
	t.Logf("golden drift result: %s", result)
	if a.Hash != goldenDriftTelemetry {
		t.Errorf("drift telemetry drifted from the pinned run:\n got  %s\n want %s", a.Hash, goldenDriftTelemetry)
	}
	if result != goldenDriftResult {
		t.Errorf("drift result drifted from the pinned run:\n got  %s\n want %s", result, goldenDriftResult)
	}
}
