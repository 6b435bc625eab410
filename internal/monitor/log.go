package monitor

import (
	"slices"
	"sort"

	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// entry is one completed query in the record log: 40 bytes and no pointers,
// so the collector never scans a chunk. The tenant is its ref in the
// monitor's interner; class and inst (served it) index the log's side
// tables; route is its trace sequence.
type entry struct {
	submit, finish, slaTarget sim.Time
	ref                       tenant.Ref
	class, inst               uint16
	route                     uint32
}

const (
	// Chunk capacities double from minChunk to maxChunk entries (1.25 KB to
	// 160 KB): a group that completed a handful of queries holds a kilobyte,
	// a busy one wastes at most one partly filled 160 KB chunk.
	minChunk = 32
	maxChunk = 4096

	// spillMark in entry.class says the record's class and instance are the
	// next of recordLog.spill, not table indices.
	spillMark = 0xFFFF
)

// offTable is the class and instance of the i-th record, which the side
// tables could not index.
type offTable struct {
	i     int
	class *queries.Class
	mppdb string
}

// recordLog is the append-only log of completed queries. Entries live in
// chunks that are filled once and never moved, so appending copies nothing
// and a QueryRecord exists only while a reader asks for it.
type recordLog struct {
	chunks [][]entry // oldest first; all but the last are full
	n      int       // entries logged
	met    int       // entries that met their SLA

	// Side tables, in first-seen order. A group's instances are few and the
	// live ones were added last, so insts is searched from its end. A
	// catalog has a few dozen classes, but every ad-hoc statement brings a
	// class of its own, hence the map.
	classes  []*queries.Class
	classIdx map[*queries.Class]uint16
	insts    []string
	// spill holds, in log order, the class and instance of every entry
	// marked spillMark: those logged after a table ran out of 16-bit indices
	// (65,535 ad-hoc statements or instance replacements in one group).
	spill []offTable
}

// add logs one completed query of the tenant behind ref; met is whether it
// met its SLA.
func (l *recordLog) add(ref tenant.Ref, rec QueryRecord, met bool, route uint32) {
	e := entry{submit: rec.Submit, finish: rec.Finish, slaTarget: rec.SLATarget, ref: ref, route: route}
	ci, okc := l.classIndex(rec.Class)
	ii, oki := l.instIndex(rec.MPPDB)
	if okc && oki {
		e.class, e.inst = ci, ii
	} else {
		e.class = spillMark
		l.spill = append(l.spill, offTable{l.n, rec.Class, rec.MPPDB})
	}
	k := len(l.chunks) - 1
	if k < 0 || len(l.chunks[k]) == cap(l.chunks[k]) {
		size := minChunk
		if k >= 0 {
			size = min(2*cap(l.chunks[k]), maxChunk)
		}
		l.chunks = append(l.chunks, make([]entry, 0, size))
		k++
	}
	l.chunks[k] = append(l.chunks[k], e)
	l.n++
	if met {
		l.met++
	}
}

func (l *recordLog) classIndex(c *queries.Class) (uint16, bool) {
	if i, ok := l.classIdx[c]; ok {
		return i, true
	}
	if len(l.classes) == spillMark {
		return 0, false
	}
	if l.classIdx == nil {
		l.classIdx = make(map[*queries.Class]uint16)
	}
	i := uint16(len(l.classes))
	l.classes = append(l.classes, c)
	l.classIdx[c] = i
	return i, true
}

func (l *recordLog) instIndex(id string) (uint16, bool) {
	for i := len(l.insts) - 1; i >= 0; i-- {
		if l.insts[i] == id {
			return uint16(i), true
		}
	}
	if len(l.insts) == spillMark {
		return 0, false
	}
	l.insts = append(l.insts, id)
	return uint16(len(l.insts) - 1), true
}

// appendTo materialises the log's records onto dst in completion order: all
// of them, or only those of the tenant behind only when it is not NoRef. ids
// resolves refs to tenant IDs; room is how many records that makes.
func (l *recordLog) appendTo(dst []QueryRecord, ids []string, only tenant.Ref, room int) []QueryRecord {
	dst = slices.Grow(dst, room)
	spilled := 0
	for _, chunk := range l.chunks {
		for i := range chunk {
			e := &chunk[i]
			if e.class == spillMark {
				spilled++
			}
			if only != tenant.NoRef && e.ref != only {
				continue
			}
			// Written field by field into the slot Grow made room for:
			// appending a composite literal builds it on the stack and moves
			// it in through the bulk write barrier while the collector runs
			// (growing dst at the heap's peak usually starts it; a replay's,
			// allocated before its drive, usually leaves it idle), a quarter
			// more per record.
			dst = dst[:len(dst)+1]
			r := &dst[len(dst)-1]
			if e.class == spillMark {
				r.Class, r.MPPDB = l.spill[spilled-1].class, l.spill[spilled-1].mppdb
			} else {
				r.Class, r.MPPDB = l.classes[e.class], l.insts[e.inst]
			}
			r.Tenant = ids[e.ref]
			r.Submit, r.Finish, r.SLATarget = e.submit, e.finish, e.slaTarget
		}
	}
	return dst
}

// traced returns the i-th logged query as its spans need it; ids resolves
// refs to tenant IDs.
func (l *recordLog) traced(i int, ids []string) telemetry.QueryOp {
	c, k := 0, i
	for ; k >= len(l.chunks[c]); c++ {
		k -= len(l.chunks[c])
	}
	e := &l.chunks[c][k]
	q := telemetry.QueryOp{Seq: e.route, Submit: e.submit, Finish: e.finish, Tenant: ids[e.ref]}
	if e.class == spillMark {
		o := &l.spill[sort.Search(len(l.spill), func(j int) bool { return l.spill[j].i >= i })]
		q.Class, q.MPPDB = o.class.ID, o.mppdb
	} else {
		q.Class, q.MPPDB = l.classes[e.class].ID, l.insts[e.inst]
	}
	return q
}
