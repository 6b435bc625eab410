package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/advisor"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// TestRankBreaksTiesInPlanOrder: with more equal-sized groups than the dozen
// below which sort.Slice happens to be stable, the ranking still lists equal
// groups in plan order, and carve follows it with member-ordered logs.
func TestRankBreaksTiesInPlanOrder(t *testing.T) {
	plan := &advisor.Plan{}
	var logs []*workload.TenantLog
	addGroup := func(members int) {
		pg := advisor.PlannedGroup{ID: fmt.Sprintf("TG-%04d", len(plan.Groups))}
		for m := 0; m < members; m++ {
			id := fmt.Sprintf("%s/%d", pg.ID, m)
			pg.TenantIDs = append(pg.TenantIDs, id)
			// Logs arrive in the reverse of plan order.
			logs = append([]*workload.TenantLog{{Tenant: &tenant.Tenant{ID: id}}}, logs...)
		}
		plan.Groups = append(plan.Groups, pg)
	}
	for i := 0; i < 30; i++ {
		addGroup(2)
	}
	addGroup(3) // index 30: the one larger group
	for i := 0; i < 9; i++ {
		addGroup(2)
	}

	ranked := rank(plan, largestFirst(plan))
	want := []int{30}
	for i := 0; i < 40; i++ {
		if i != 30 {
			want = append(want, i)
		}
	}
	if !reflect.DeepEqual(ranked, want) {
		t.Fatalf("ranking is not size-then-plan order:\n got  %v\n want %v", ranked, want)
	}

	w := carve(plan, logs, top(ranked, 3))
	var groups, tenants []string
	for _, pg := range w.plan.Groups {
		groups = append(groups, pg.ID)
	}
	for _, tl := range w.logs {
		tenants = append(tenants, tl.Tenant.ID)
	}
	if want := []string{"TG-0030", "TG-0000", "TG-0001"}; !reflect.DeepEqual(groups, want) {
		t.Errorf("carved groups %v, want %v", groups, want)
	}
	wantTenants := []string{"TG-0030/0", "TG-0030/1", "TG-0030/2", "TG-0000/0", "TG-0000/1", "TG-0001/0", "TG-0001/1"}
	if !reflect.DeepEqual(tenants, wantTenants) {
		t.Errorf("carved logs %v, want %v", tenants, wantTenants)
	}
	if got := top(ranked, 100); len(got) != 40 {
		t.Errorf("top past the end returned %d groups", len(got))
	}
}
