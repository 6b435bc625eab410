package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// nodeView is one node as the naive owner map holds it.
type nodeView struct {
	state NodeState
	owner string
}

// custody is the naive owner map FuzzPoolLifecycle checks the pool against:
// the state and owner of every node after the previous step.
type custody struct {
	t    *testing.T
	p    *Pool
	prev []nodeView
}

func (c *custody) view() []nodeView {
	out := make([]nodeView, len(c.p.nodes))
	for i, nd := range c.p.nodes {
		out[i] = nodeView{nd.State, nd.Owner}
	}
	return out
}

// failedOf scans the naive map for owner's Failed node IDs, ascending.
func failedOf(v []nodeView, owner string) []int {
	var out []int
	for id, n := range v {
		if n.state == Failed && n.owner == owner {
			out = append(out, id)
		}
	}
	return out
}

// step checks one operation: want maps each node the operation may change
// to its expected view (a nil want allows no change), and the invariants
// hold afterwards. It returns the step's changes.
func (c *custody) step(op string, want func(id int, was nodeView) (nodeView, bool)) map[int]nodeView {
	c.t.Helper()
	cur := c.view()
	changed := map[int]nodeView{}
	for id := range cur {
		was, now := c.prev[id], cur[id]
		if was == now {
			continue
		}
		changed[id] = now
		if was.state == Failed && now.state == Hibernated {
			c.t.Fatalf("%s: failed node %d hibernated without a re-image", op, id)
		}
		if want == nil {
			c.t.Fatalf("%s: node %d changed %v → %v", op, id, was, now)
		}
		if exp, ok := want(id, was); !ok || exp != now {
			c.t.Fatalf("%s: node %d changed %v → %v (allowed: %v %v)", op, id, was, now, exp, ok)
		}
	}
	owners := map[string]bool{}
	free := 0
	for id, n := range cur {
		if (n.owner != "") != (n.state == Active || n.state == Failed) {
			c.t.Fatalf("%s: node %d is %v with owner %q", op, id, n.state, n.owner)
		}
		if n.state < Hibernated || n.state > Repairing {
			c.t.Fatalf("%s: node %d in state %v", op, id, n.state)
		}
		if n.state == Hibernated && !c.p.down[c.p.nodes[id].Domain] {
			free++
		}
		owners[n.owner] = true
	}
	for o := range c.p.failed {
		owners[o] = true
	}
	for o := range owners {
		if got, scan := c.p.FailedCount(o), len(failedOf(cur, o)); got != scan {
			c.t.Fatalf("%s: FailedCount(%q) = %d, scan finds %d", op, o, got, scan)
		}
	}
	if got := c.p.Free(); got != free {
		c.t.Fatalf("%s: Free = %d, scan finds %d", op, got, free)
	}
	c.prev = cur
	return changed
}

// FuzzPoolLifecycle drives the node lifecycle — stage, ready, cut over,
// abort, swap — interleaved with FailAny, FailDomain, RestoreDomain and the
// re-images the engine fires, and checks every step against a naive owner
// map: each node has one state, an owner iff it is Active or Failed, no
// Failed node hibernates without passing Repairing, FailedCount matches a
// scan, Free counts the hibernated nodes of up domains, and each operation
// moves only the nodes it may.
func FuzzPoolLifecycle(f *testing.F) {
	for seed := int64(1); seed <= 20; seed++ {
		b := make([]byte, 800)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	owners := []string{"db0", "db1", "db2", "tmp"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		p := NewPoolDomains(24, 3)
		eng := sim.NewEngine()
		lc := NewLifecycle(eng, p, ops[0]&1 == 0, ops[0]&2 == 0)
		c := &custody{t: t, p: p}
		c.prev = c.view()
		for i := 1; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			owner := owners[arg%len(owners)]
			op := fmt.Sprintf("step %d: op %d on %s", i/2, ops[i]%8, owner)
			switch ops[i] % 8 {
			case 0:
				n := 1 + arg/4%3
				_, err := lc.Stage(owner, n, []int{arg / 16 % 3})
				got := c.step(op+" Stage", func(id int, was nodeView) (nodeView, bool) {
					return nodeView{Active, owner}, err == nil && was.state == Hibernated && !p.down[p.nodes[id].Domain]
				})
				if err == nil && len(got) != n {
					t.Fatalf("%s: Stage moved %d nodes, want %d", op, len(got), n)
				}
			case 1:
				lc.Ready(owner, 1+arg/4%3, float64(arg%7), func(intact bool) {
					if want := len(failedOf(c.view(), owner)) == 0; intact != want {
						t.Fatalf("%s: Ready reported intact=%v, scan says %v", op, intact, want)
					}
				})
				c.step(op+" Ready", nil)
			case 2:
				prev := c.prev
				released, err := lc.CutOver(owner, "tmp")
				got := c.step(op+" CutOver", func(id int, was nodeView) (nodeView, bool) {
					switch {
					case err != nil || owner == "tmp":
						return was, false
					case was == nodeView{Active, "tmp"}:
						return nodeView{Active, owner}, true
					case was == nodeView{Active, owner}:
						return nodeView{Hibernated, ""}, true
					}
					return was, false
				})
				for _, id := range released {
					if got[id] != (nodeView{Hibernated, ""}) || prev[id] != (nodeView{Active, owner}) {
						t.Fatalf("%s: released node %d was %v", op, id, prev[id])
					}
				}
			case 3:
				lc.Abort(owner)
				c.step(op+" Abort", func(_ int, was nodeView) (nodeView, bool) {
					switch was {
					case nodeView{Active, owner}:
						return nodeView{Hibernated, ""}, true
					case nodeView{Failed, owner}:
						return nodeView{Repairing, ""}, true
					}
					return was, false
				})
			case 4:
				failed := failedOf(c.prev, owner)
				gone, repl, _, err := lc.Swap(owner, float64(arg%5), 1+arg%3, func() {})
				if err == nil && (len(failed) == 0 && gone != -1 || len(failed) > 0 && gone != failed[0]) {
					t.Fatalf("%s: Swap sent %d to repair, failed nodes were %v", op, gone, failed)
				}
				c.step(op+" Swap", func(id int, was nodeView) (nodeView, bool) {
					switch {
					case err != nil:
						return was, false
					case id == gone:
						return nodeView{Repairing, ""}, true
					case id == repl:
						return nodeView{Active, owner}, was.state == Hibernated
					}
					return was, false
				})
			case 5:
				id, err := p.FailAny(owner)
				c.step(op+" FailAny", func(n int, was nodeView) (nodeView, bool) {
					return nodeView{Failed, owner}, err == nil && n == id && was == nodeView{Active, owner}
				})
			case 6:
				d := arg % 3
				_, err := p.FailDomain(d)
				c.step(op+" FailDomain", func(id int, was nodeView) (nodeView, bool) {
					return nodeView{Failed, was.owner}, err == nil && was.state == Active && p.nodes[id].Domain == d
				})
			case 7:
				if arg%2 == 0 {
					_ = p.RestoreDomain(arg / 2 % 3)
					c.step(op+" RestoreDomain", nil)
					break
				}
				eng.Run(eng.Now().Add(time.Duration(arg) * time.Minute))
				c.step(op+" re-image", func(_ int, was nodeView) (nodeView, bool) {
					return nodeView{Hibernated, ""}, was.state == Repairing
				})
			}
		}
	})
}
