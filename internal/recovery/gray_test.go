package recovery

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mppdb"
	"repro/internal/sim"
)

// nopRouter satisfies HedgeRouter for constructor tests.
type nopRouter struct{}

func (nopRouter) SetGrayFlag(string, bool)                         {}
func (nopRouter) SetQuarantine(string, bool)                       {}
func (nopRouter) HedgeInFlight(string) int                         { return 0 }
func (nopRouter) SetCompletionObserver(func(string, mppdb.Result)) {}

func TestGrayConfigValidation(t *testing.T) {
	mut := func(f func(*GrayConfig)) GrayConfig {
		c := DefaultGrayConfig()
		f(&c)
		return c
	}
	bad := map[string]GrayConfig{
		"negative drain":        mut(func(c *GrayConfig) { c.DrainAfter = -time.Minute }),
		"zero window":           mut(func(c *GrayConfig) { c.Window = 0 }),
		"zero min samples":      mut(func(c *GrayConfig) { c.MinSamples = 0 }),
		"samples beyond window": mut(func(c *GrayConfig) { c.MinSamples = c.Window + 1 }),
		"zero confirm beats":    mut(func(c *GrayConfig) { c.ConfirmBeats = 0 }),
		"zero clear beats":      mut(func(c *GrayConfig) { c.ClearBeats = 0 }),
	}
	for name, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := DefaultGrayConfig().validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNewGrayDetectorRejectsMissingPieces(t *testing.T) {
	eng := sim.NewEngine()
	pool := cluster.NewPool(4)
	inst := mppdb.New(eng, "g0-db0", 2)
	insts := []*mppdb.Instance{inst}
	ctl := newController(t, eng, pool, NewTriage(pool), inst)
	hub, cfg := ctl.tel, DefaultGrayConfig()
	if _, err := NewGrayDetector(nil, pool, hub, "g0", insts, nopRouter{}, ctl, cfg); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewGrayDetector(eng, nil, hub, "g0", insts, nopRouter{}, ctl, cfg); err == nil {
		t.Error("nil pool accepted")
	}
	if _, err := NewGrayDetector(eng, pool, nil, "g0", insts, nopRouter{}, ctl, cfg); err == nil {
		t.Error("nil hub accepted")
	}
	if _, err := NewGrayDetector(eng, pool, hub, "g0", nil, nopRouter{}, ctl, cfg); err == nil {
		t.Error("empty instance set accepted")
	}
	if _, err := NewGrayDetector(eng, pool, hub, "g0", insts, nil, ctl, cfg); err == nil {
		t.Error("nil router accepted")
	}
	if _, err := NewGrayDetector(eng, pool, hub, "g0", insts, nopRouter{}, nil, cfg); err == nil {
		t.Error("nil crash controller accepted")
	}
	bad := cfg
	bad.Window = 0
	if _, err := NewGrayDetector(eng, pool, hub, "g0", insts, nopRouter{}, ctl, bad); err == nil {
		t.Error("invalid config accepted")
	}
	if eng.Pending() != 0 {
		t.Errorf("rejected detectors left %d events queued", eng.Pending())
	}
	if _, err := NewGrayDetector(eng, pool, hub, "g0", insts, nopRouter{}, ctl, cfg); err != nil {
		t.Errorf("valid detector rejected: %v", err)
	}
}

// TestNewGrayDetectorArms: NewGrayDetector alone arms the detector — its
// evaluation beat is queued one grayInterval out, as a shared event, and its
// metric families are registered on the hub.
func TestNewGrayDetectorArms(t *testing.T) {
	eng := sim.NewEngine()
	pool := cluster.NewPool(4)
	inst := mppdb.New(eng, "g0-db0", 2)
	ctl := newController(t, eng, pool, NewTriage(pool), inst)
	if _, err := NewGrayDetector(eng, pool, ctl.tel, "g0", []*mppdb.Instance{inst}, nopRouter{}, ctl, DefaultGrayConfig()); err != nil {
		t.Fatal(err)
	}
	if at, ok := eng.NextAt(); eng.Pending() != 1 || !ok || at != sim.Duration(grayInterval) {
		t.Fatalf("%d events pending, next at %v: want the one beat at %v", eng.Pending(), at, grayInterval)
	}
	families := map[string]bool{}
	for _, mv := range ctl.tel.Registry.Snapshot() {
		families[mv.Name] = true
	}
	for _, name := range []string{"thrifty_gray_suspected_total", "thrifty_gray_confirmed_total",
		"thrifty_gray_drained_total", "thrifty_gray_cleared_total", "thrifty_gray_active"} {
		if !families[name] {
			t.Errorf("metric family %s not registered", name)
		}
	}
	eng.Run(sim.Duration(3 * grayInterval))
	if eng.Pending() != 1 {
		t.Errorf("%d events pending after three beats, want the next beat alone", eng.Pending())
	}
}
