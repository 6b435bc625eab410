package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/telemetry"
)

// Golden fingerprints of the fixed-seed determinism runs of the four fault
// classes, captured on commit 26500ce — when each class was its own harness,
// before they were moved in front of replay.Run and then behind one Run — so
// a refactor of the driver has to reproduce the same program:
// the telemetry sum is the SHA-256 of Events.Dump followed by Tracer.Dump, the
// result digest covers the condensed outcome (floats to 17 digits). The
// domain-fail telemetry sum was re-taken when every group moved to its own
// clock domain: a domain repair on the coordinator now fires after a group's
// same-instant triage poll. If a change legitimately alters a run, re-capture
// with
//
//	go test -run 'TelemetryDeterminism' -v ./internal/recovery/chaos | grep golden
const (
	goldenChaosTelemetry    = "3fa271eca57e643bf4566c3c0e505cd6fb19fa4742a47dc80cae637241591109"
	goldenChaosResult       = "daa5258a4f338ca3384cbb5bebb7beb7dbcac138d2d38ed9ddba6cd5ff9bc8d2"
	goldenOverloadTelemetry = "46c75f5c1bb5a32a4be1c87f9bfd81114befa88ddf3493052ffc2f5f41914987"
	goldenOverloadResult    = "a371935eae61dec49a7443e9cba877c0a35190aac0173fa9f7d3e9f982403fd8"
	goldenGrayTelemetry     = "90690e6fa6476db7b751d705fd46c04151d48842e81d37ccd764baf292cda189"
	goldenGrayResult        = "bdcc80826c49a173a745683b09eefa63e648a02ee077fa253d868b2c8b5b7afe"
	goldenDomainTelemetry   = "9a48f6a300e35e00552cecdcdeaf9196c065c9ffd2e4ca61ca8ae0d57f25bd8b"
	goldenDomainResult      = "d6b20c52b7d56d2a0d8a06b279cc2456de60405eb6fb7725fa9149bd3715d1f5"
)

// telemetrySum hashes a hub's event log and trace.
func telemetrySum(t *testing.T, h *telemetry.Hub) string {
	t.Helper()
	sum := sha256.New()
	if err := h.Events.Dump(sum); err != nil {
		t.Fatal(err)
	}
	if err := h.Tracer.Dump(sum); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// digest hashes the parts of a condensed result, floats to 17 significant
// digits.
func digest(parts ...any) string {
	sum := sha256.New()
	for _, p := range parts {
		if f, ok := p.(float64); ok {
			fmt.Fprintf(sum, "%.17g|", f)
		} else {
			fmt.Fprintf(sum, "%+v|", p)
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// checkGolden compares one fingerprint with its pinned value.
func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	t.Logf("golden %s: %s", name, got)
	if got != want {
		t.Errorf("%s drifted from the pinned run:\n got  %s\n want %s", name, got, want)
	}
}
