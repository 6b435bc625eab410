package monitor

import (
	"testing"
	"time"

	"repro/internal/queries"
	"repro/internal/sim"
)

func rec(tenant string, submit, finish, target sim.Time) QueryRecord {
	return QueryRecord{Tenant: tenant, Submit: submit, Finish: finish, SLATarget: target}
}

func TestQueryRecordMetrics(t *testing.T) {
	r := rec("a", 10*sim.Second, 30*sim.Second, 20*sim.Second)
	if r.Latency() != 20*sim.Second {
		t.Errorf("Latency = %v", r.Latency())
	}
	if r.Normalized() != 1.0 || !r.SLAMet() {
		t.Errorf("Normalized = %v, SLAMet = %v", r.Normalized(), r.SLAMet())
	}
	slow := rec("a", 0, 30*sim.Second, 20*sim.Second)
	if slow.Normalized() != 1.5 || slow.SLAMet() {
		t.Errorf("slow: Normalized = %v, SLAMet = %v", slow.Normalized(), slow.SLAMet())
	}
	if rec("a", 0, 5*sim.Second, 0).Normalized() != 1 {
		t.Error("zero target should normalize to 1")
	}
}

func TestNewGroupValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewGroup(eng, "g", 0, time.Hour); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := NewGroup(eng, "g", 3, 0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestActiveTenantCounting(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewGroup(eng, "g", 3, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	m.QueryStarted("a")
	m.QueryStarted("a") // second concurrent query, same tenant
	m.QueryStarted("b")
	if got := m.ActiveTenants(); got != 2 {
		t.Errorf("ActiveTenants = %d, want 2", got)
	}
	m.QueryFinished(rec("a", 0, 0, 0))
	if got := m.ActiveTenants(); got != 2 {
		t.Errorf("after one of a's queries: %d, want 2 (strong inactive notion)", got)
	}
	m.QueryFinished(rec("a", 0, 0, 0))
	if got := m.ActiveTenants(); got != 1 {
		t.Errorf("after all of a's queries: %d, want 1", got)
	}
}

// TestRTTTPTracksViolations builds the §5.1 scenario: a group with R=1 sees
// two tenants active together for 10% of a 100-second observation window.
func TestRTTTPTracksViolations(t *testing.T) {
	eng := sim.NewEngine()
	m, _ := NewGroup(eng, "g", 1, 100*time.Second)
	// Tenant a active [0, 60); tenant b active [50, 60): violation 10 s.
	m.QueryStarted("a")
	eng.Schedule(50*sim.Second, func(sim.Time) { m.QueryStarted("b") })
	eng.Schedule(60*sim.Second, func(sim.Time) {
		m.QueryFinished(rec("a", 0, 60*sim.Second, sim.MaxTime))
		m.QueryFinished(rec("b", 50*sim.Second, 60*sim.Second, sim.MaxTime))
	})
	eng.Schedule(100*sim.Second, func(sim.Time) {})
	eng.RunAll()
	if got := m.RTTTP(); got != 0.9 {
		t.Errorf("RTTTP = %v, want 0.9", got)
	}
}

func TestRTTTPOpenViolation(t *testing.T) {
	// A violation still in progress counts up to "now".
	eng := sim.NewEngine()
	m, _ := NewGroup(eng, "g", 1, 100*time.Second)
	eng.Schedule(50*sim.Second, func(sim.Time) {
		m.QueryStarted("a")
		m.QueryStarted("b")
	})
	eng.Schedule(100*sim.Second, func(sim.Time) {})
	eng.RunAll()
	if got := m.RTTTP(); got != 0.5 {
		t.Errorf("RTTTP = %v, want 0.5 (open violation over half the observed time)", got)
	}
}

func TestRTTTPWindowExcludesOldViolations(t *testing.T) {
	eng := sim.NewEngine()
	m, _ := NewGroup(eng, "g", 1, 100*time.Second)
	// Violation [0, 10): outside the window once now = 200.
	m.QueryStarted("a")
	m.QueryStarted("b")
	eng.Schedule(10*sim.Second, func(sim.Time) {
		m.QueryFinished(rec("a", 0, 0, sim.MaxTime))
		m.QueryFinished(rec("b", 0, 0, sim.MaxTime))
	})
	eng.Schedule(200*sim.Second, func(sim.Time) {})
	eng.RunAll()
	if got := m.RTTTP(); got != 1.0 {
		t.Errorf("RTTTP = %v, want 1.0 (violation aged out)", got)
	}
}

func TestRTTTPBeforeAnyObservation(t *testing.T) {
	eng := sim.NewEngine()
	m, _ := NewGroup(eng, "g", 3, 24*time.Hour)
	if got := m.RTTTP(); got != 1 {
		t.Errorf("RTTTP with zero observed time = %v, want 1", got)
	}
}

func TestExclusion(t *testing.T) {
	eng := sim.NewEngine()
	m, _ := NewGroup(eng, "g", 1, time.Hour)
	m.QueryStarted("hog")
	m.QueryStarted("b")
	if m.ActiveTenants() != 2 {
		t.Fatal("setup")
	}
	m.Exclude("hog")
	if !m.Excluded("hog") {
		t.Error("hog not marked excluded")
	}
	if m.ActiveTenants() != 1 {
		t.Errorf("ActiveTenants after exclusion = %d, want 1", m.ActiveTenants())
	}
	// Further activity from the excluded tenant is invisible.
	m.QueryStarted("hog")
	if m.ActiveTenants() != 1 {
		t.Error("excluded tenant still counted")
	}
	// Double exclusion is a no-op.
	m.Exclude("hog")
	// A finish for a query that started before exclusion must not underflow.
	m.QueryFinished(rec("hog", 0, 0, sim.MaxTime))
	if m.ActiveTenants() != 1 {
		t.Error("stale finish corrupted the count")
	}
}

func TestTenantActivityIntervals(t *testing.T) {
	eng := sim.NewEngine()
	m, _ := NewGroup(eng, "g", 3, time.Hour)
	m.QueryStarted("a")
	eng.Schedule(10*sim.Second, func(sim.Time) { m.QueryFinished(rec("a", 0, 0, sim.MaxTime)) })
	eng.Schedule(20*sim.Second, func(sim.Time) { m.QueryStarted("a") })
	eng.Schedule(25*sim.Second, func(sim.Time) {})
	eng.RunAll()
	act := m.TenantActivity("a")
	if len(act) != 2 {
		t.Fatalf("activity = %v, want 2 intervals", act)
	}
	if act[0].Start != 0 || act[0].End != 10*sim.Second {
		t.Errorf("first interval %v", act[0])
	}
	// The open interval is closed at now.
	if act[1].Start != 20*sim.Second || act[1].End != 25*sim.Second {
		t.Errorf("open interval %v", act[1])
	}
	if ts := m.Tenants(); len(ts) != 1 || ts[0] != "a" {
		t.Errorf("Tenants = %v", ts)
	}
}

func TestSLAAttainment(t *testing.T) {
	eng := sim.NewEngine()
	m, _ := NewGroup(eng, "g", 3, time.Hour)
	if m.SLAAttainment() != 1 {
		t.Error("empty attainment not 1")
	}
	cl := &queries.Class{ID: "x"}
	m.QueryStarted("a")
	m.QueryFinished(QueryRecord{Tenant: "a", Class: cl, Submit: 0, Finish: 10 * sim.Second, SLATarget: 20 * sim.Second})
	m.QueryStarted("a")
	m.QueryFinished(QueryRecord{Tenant: "a", Class: cl, Submit: 0, Finish: 30 * sim.Second, SLATarget: 20 * sim.Second})
	if got := m.SLAAttainment(); got != 0.5 {
		t.Errorf("attainment = %v, want 0.5", got)
	}
	if len(m.Records()) != 2 {
		t.Errorf("records = %d", len(m.Records()))
	}
}

// TestAttainmentIsARunningCount: RecordCount and SLAAttainment are read on
// every group snapshot (GET /v1/groups, each admission brownout tick), so
// they must cost the same whatever the log holds. With the log's entries
// taken away they still answer, hence neither walks it.
func TestAttainmentIsARunningCount(t *testing.T) {
	m, _ := NewGroup(sim.NewEngine(), "g", 3, time.Hour)
	cl := &queries.Class{ID: "x"}
	for i := 0; i < 1000; i++ {
		m.QueryFinished(QueryRecord{Tenant: "a", Class: cl, Finish: sim.Time(1+i%4/3) * sim.Second, SLATarget: sim.Second})
	}
	m.log.chunks = nil
	if got := m.RecordCount(); got != 1000 {
		t.Errorf("RecordCount = %d, want 1000", got)
	}
	if got := m.SLAAttainment(); got != 0.75 {
		t.Errorf("SLAAttainment = %v, want 0.75", got)
	}
}
