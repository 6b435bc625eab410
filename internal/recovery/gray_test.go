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
	cfg := DefaultGrayConfig()
	if _, err := NewGrayDetector(nil, pool, "g0", insts, nopRouter{}, ctl, cfg); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewGrayDetector(eng, nil, "g0", insts, nopRouter{}, ctl, cfg); err == nil {
		t.Error("nil pool accepted")
	}
	if _, err := NewGrayDetector(eng, pool, "g0", nil, nopRouter{}, ctl, cfg); err == nil {
		t.Error("empty instance set accepted")
	}
	if _, err := NewGrayDetector(eng, pool, "g0", insts, nil, ctl, cfg); err == nil {
		t.Error("nil router accepted")
	}
	if _, err := NewGrayDetector(eng, pool, "g0", insts, nopRouter{}, nil, cfg); err == nil {
		t.Error("nil crash controller accepted")
	}
	bad := cfg
	bad.Window = 0
	if _, err := NewGrayDetector(eng, pool, "g0", insts, nopRouter{}, ctl, bad); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewGrayDetector(eng, pool, "g0", insts, nopRouter{}, ctl, cfg); err != nil {
		t.Errorf("valid detector rejected: %v", err)
	}
}
