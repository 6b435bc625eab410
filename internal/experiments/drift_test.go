package experiments

import (
	"fmt"
	"slices"
	"testing"
)

// Golden fingerprints of TestDriftDeterminism's fixed-seed paper arm: the
// telemetry hash (SHA-256 of Events.Dump + Tracer.Dump) and the run's
// accounting, with attainments to 17 digits. Re-capture with
//
//	go test -run TestDriftDeterminism -v ./internal/experiments | grep golden
const (
	goldenDriftTelemetry = "b282ce2739195adb370f63e0b4fc54acadfc66c112dff78296c62decdf9d69bc"
	goldenDriftResult    = "19796|76|19720|76|76|0.98980730223123736|0.92307692307692313|T0109|296.6666666666664|1|1"
)

// driftEnv widens the shared tiny env to two replay groups, so the reserve
// groups supply joiners and the victim and the leaver sit in different
// groups.
func driftEnv(t *testing.T) *Env {
	t.Helper()
	base := testEnv(t)
	env := &Env{Scale: base.Scale, Seed: base.Seed, Cat: base.Cat, Lib: base.Lib}
	env.Scale.ReplayGroups = 2
	return env
}

// runPaperArm replays the drift scenario's paper arm alone, on the default
// one-day schedule.
func runPaperArm(t *testing.T) (*driftWorld, *DriftArm) {
	t.Helper()
	env, cfg := driftEnv(t), DefaultDriftConfig()
	w, err := buildDriftWorld(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arm, err := runDrift(env, cfg, w, true)
	if err != nil {
		t.Fatal(err)
	}
	return w, arm
}

// TestDriftSmoke runs the drift scenario — churn and the victim's activity
// shift against the paper's loop — at tiny scale. Part of `make drift-smoke`
// (with -race), so it must stay short-friendly.
func TestDriftSmoke(t *testing.T) {
	w, arm := runPaperArm(t)
	// The §5.1 scaler acted on the victim's group: the take-over victim was
	// carved out onto a new MPPDB.
	carved := false
	for _, ev := range arm.Scaling {
		carved = carved || (ev.Err == "" && slices.Contains(ev.OverActive, w.victim))
	}
	if !carved {
		t.Errorf("no scaling action moved the victim %s: %+v", w.victim, arm.Scaling)
	}
	// Every accepted query completed.
	if !arm.NoDrop() {
		t.Errorf("dropped queries: %d accepted, %d completed", arm.Submitted-arm.SubmitErrors, arm.Completed)
	}
	// The joiner waits for the next cycle: each of its arrivals is a
	// rejection, and the only one.
	if arm.JoinerArrivals == 0 || arm.JoinerRejected != arm.JoinerArrivals || arm.SubmitErrors != arm.JoinerRejected {
		t.Errorf("joiner arrivals %d, rejected %d, submit errors %d: want every joiner arrival and nothing else rejected",
			arm.JoinerArrivals, arm.JoinerRejected, arm.SubmitErrors)
	}
	if arm.Hash == "" {
		t.Error("no telemetry hash")
	}
}

// TestDriftDeterminism replays the paper arm twice with the same seed: the
// telemetry dumps (events + trace) must be byte-identical — the scaler lives
// on the sim clock and introduces no nondeterminism — and both runs must
// match the pinned one.
func TestDriftDeterminism(t *testing.T) {
	_, a := runPaperArm(t)
	_, b := runPaperArm(t)
	result := func(x *DriftArm) string {
		return fmt.Sprintf("%d|%d|%d|%d|%d|%.17g|%.17g|%s|%.17g|%d|%d", x.Submitted, x.SubmitErrors,
			x.Completed, x.JoinerArrivals, x.JoinerRejected, x.Attainment, x.WorstMember, x.WorstTenant,
			x.NodeHours, len(x.Scaling), x.Moved())
	}
	if a.Hash != b.Hash {
		t.Fatalf("same-seed paper runs diverged:\n  %s\n  %s", a.Hash, b.Hash)
	}
	if result(a) != result(b) {
		t.Fatalf("same-seed accounting diverged:\n  %s\n  %s", result(a), result(b))
	}
	t.Logf("golden drift telemetry: %s", a.Hash)
	t.Logf("golden drift result: %s", result(a))
	if a.Hash != goldenDriftTelemetry {
		t.Errorf("drift telemetry drifted from the pinned run:\n got  %s\n want %s", a.Hash, goldenDriftTelemetry)
	}
	if result(a) != goldenDriftResult {
		t.Errorf("drift result drifted from the pinned run:\n got  %s\n want %s", result(a), goldenDriftResult)
	}
}
