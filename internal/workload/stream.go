package workload

import (
	"fmt"
	"sort"

	"repro/internal/queries"
	"repro/internal/sim"
)

// Arrival is one query submission yielded by a Stream.
type Arrival struct {
	QueryEvent
	// Log is the position of the tenant's log in the Stream's logs.
	Log int
	// Class is ClassID resolved in the Stream's catalog (nil without one).
	Class *queries.Class
}

// Stream yields the query submissions of several tenant logs inside a window
// [from, to), lazily and without allocating per arrival: a k-way merge over
// one cursor per scheduled session. Arrivals come in time order; equal times
// order by log position, then session position, then event position — what a
// stable sort by time of the logs' concatenated sessions gives. It relies on
// what the types promise: Sessions in start order, a session's Events in time
// order.
type Stream struct {
	logs []*TenantLog
	heap []cursor // min-heap by cursor.before
	left int
}

// cursor is one scheduled session's unread events [next, end).
type cursor struct {
	at        sim.Time // time of event next
	log, sess int32
	next, end int32
	ref       *SessionRef
	classes   []*queries.Class // parallel to ref.Log.Events
}

func (c *cursor) before(d *cursor) bool {
	if c.at != d.at {
		return c.at < d.at
	}
	return c.log < d.log || c.log == d.log && c.sess < d.sess
}

// NewStream opens a stream over the logs' submissions in [from, to). With a
// catalog it resolves each session template's query classes once, failing on
// a class the catalog lacks; with nil, arrivals carry no Class and the error
// is always nil.
func NewStream(cat *queries.Catalog, logs []*TenantLog, from, to sim.Time) (*Stream, error) {
	s := &Stream{logs: logs}
	resolved := make(map[*SessionLog][]*queries.Class)
	for li, tl := range logs {
		for si := range tl.Sessions {
			ref := &tl.Sessions[si]
			if ref.Start >= to {
				break
			}
			evs := ref.Log.Events
			lo := sort.Search(len(evs), func(i int) bool { return ref.Start+evs[i].Offset >= from })
			hi := lo + sort.Search(len(evs)-lo, func(i int) bool { return ref.Start+evs[lo+i].Offset >= to })
			if lo == hi {
				continue
			}
			classes, ok := resolved[ref.Log]
			if cat != nil && !ok {
				classes = make([]*queries.Class, len(evs))
				for i := range evs {
					if classes[i], ok = cat.ByID(evs[i].ClassID); !ok {
						return nil, fmt.Errorf("workload: unknown query class %s", evs[i].ClassID)
					}
				}
				resolved[ref.Log] = classes
			}
			s.heap = append(s.heap, cursor{at: ref.Start + evs[lo].Offset, log: int32(li), sess: int32(si),
				next: int32(lo), end: int32(hi), ref: ref, classes: classes})
			s.left += hi - lo
		}
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
	return s, nil
}

// Len returns the number of arrivals not yet yielded.
func (s *Stream) Len() int { return s.left }

// Peek reports the time of the next arrival; ok is false when none is left.
func (s *Stream) Peek() (at sim.Time, ok bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// Next yields the next arrival; ok is false when none is left.
func (s *Stream) Next() (a Arrival, ok bool) {
	if len(s.heap) == 0 {
		return a, false
	}
	c := &s.heap[0]
	evs := c.ref.Log.Events
	ev := &evs[c.next]
	a = Arrival{Log: int(c.log), QueryEvent: QueryEvent{At: c.at, Tenant: s.logs[c.log].Tenant.ID,
		ClassID: ev.ClassID, User: ev.User, Batch: ev.Batch, SLATarget: ev.Duration}}
	if c.classes != nil {
		a.Class = c.classes[c.next]
	}
	if c.next++; c.next < c.end {
		c.at = c.ref.Start + evs[c.next].Offset
	} else {
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
	}
	s.down(0)
	s.left--
	return a, true
}

// down restores the heap below position i.
func (s *Stream) down(i int) {
	h := s.heap
	for {
		min := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Drive attaches the stream to the engine as an arrival source: fn runs once
// per arrival at its logged time, in stream order, each one engine step (see
// sim.Engine.Attach for how arrivals order against other events).
func (s *Stream) Drive(eng *sim.Engine, fn func(Arrival)) {
	if first, ok := s.Peek(); ok {
		eng.Attach(first, func(sim.Time) (sim.Time, bool) {
			a, _ := s.Next()
			fn(a)
			return s.Peek()
		})
	}
}
