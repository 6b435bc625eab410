package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/sim"
)

// EventType classifies SLA-relevant occurrences.
type EventType string

const (
	// EventSLAViolation: a completed query exceeded its latency SLA target.
	EventSLAViolation EventType = "sla_violation"
	// EventRTTTPDip: a group's run-time TTP crossed below the guarantee P.
	EventRTTTPDip EventType = "rt_ttp_dip"
	// EventScalingTriggered: the elastic scaler decided to carve out
	// over-active tenants onto a dedicated MPPDB.
	EventScalingTriggered EventType = "scaling_triggered"
	// EventScalingReady: the dedicated MPPDB finished loading and queries
	// were re-pointed.
	EventScalingReady EventType = "scaling_ready"
	// EventScalingFailed: a scaling action could not complete
	// (identification failed, or its staged nodes failed during the load).
	EventScalingFailed EventType = "scaling_failed"
	// EventTakeOver: a tenant began continuous query submission (§7.5).
	EventTakeOver EventType = "take_over"
	// EventNodeFailure: an MPPDB lost a node and runs degraded.
	EventNodeFailure EventType = "node_failure"
	// EventNodeRepair: the replacement node restored full speed.
	EventNodeRepair EventType = "node_repair"
	// EventRecoveryStarted: the recovery controller detected a node failure
	// and began driving a replacement (§4.4).
	EventRecoveryStarted EventType = "recovery_started"
	// EventRecoveryReplaced: a replacement node was acquired from the pool;
	// startup + bulk reload are underway.
	EventRecoveryReplaced EventType = "recovery_replaced"
	// EventRecoveryCompleted: the reload finished and RepairNode restored
	// full speed.
	EventRecoveryCompleted EventType = "recovery_completed"
	// EventRecoveryFailed: a replacement attempt failed (e.g. node pool
	// exhausted); the controller backs off and retries.
	EventRecoveryFailed EventType = "recovery_failed"
	// EventQueryRetried: a submit failed transiently and was retried against
	// the tenant's replica set.
	EventQueryRetried EventType = "query_retried"
	// EventQueryTimeout: a submit exhausted its retry budget and returned a
	// typed timeout error to the caller.
	EventQueryTimeout EventType = "query_timeout"
	// EventContractExceeded: admission control rejected a query because the
	// tenant ran past its contracted arrival process (429 + Retry-After).
	EventContractExceeded EventType = "contract_exceeded"
	// EventQueryShed: admission control shed a query without running it —
	// the group's queue was full, the query could not start in time to meet
	// its SLA deadline, or brownout dropped best-effort traffic (503).
	EventQueryShed EventType = "query_shed"
	// EventBrownoutEntered: a group's brownout controller raised its shedding
	// level because the live RT-TTP neared the guarantee P or instances run
	// degraded.
	EventBrownoutEntered EventType = "brownout_entered"
	// EventBrownoutCleared: the group returned to normal admission.
	EventBrownoutCleared EventType = "brownout_cleared"
	// EventDomainFailed: a whole failure domain (rack/zone) went down; every
	// active node in it failed at once.
	EventDomainFailed EventType = "domain_failed"
	// EventDomainRestored: a failed domain came back; its hibernated nodes
	// are acquirable again and queued recoveries can drain.
	EventDomainRestored EventType = "domain_restored"
	// EventTriageEnqueued: a recovery lifecycle or a scale-up hit pool
	// exhaustion and entered the cluster-wide scarcity triage queue instead
	// of retrying on its own.
	EventTriageEnqueued EventType = "triage_enqueued"
	// EventTriageGranted: the triage allocator handed a scarce node to the
	// queued lifecycle with the highest SLA-at-risk priority.
	EventTriageGranted EventType = "triage_granted"
	// EventRespread: a group that collapsed onto a single failure domain
	// live-migrated one replica onto a restored domain (background startup +
	// reload, atomic pool flip, zero dropped queries).
	EventRespread EventType = "domain_respread"
)

// Event is one occurrence on the SLA timeline.
type Event struct {
	// Seq is the log-assigned monotonic sequence number.
	Seq uint64
	// At is the clock time the event was published.
	At sim.Time
	// Type classifies the event.
	Type EventType
	// Group, Tenant, and MPPDB locate the event; empty when not applicable.
	Group  string
	Tenant string
	MPPDB  string
	// Value carries the type's headline number (normalized latency for a
	// violation, RT-TTP for a dip or trigger, node count for scaling).
	Value float64
	// Detail is a short human-readable elaboration.
	Detail string
}

// String renders the event as one deterministic log line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %v %s", e.Seq, e.At, e.Type)
	if e.Group != "" {
		fmt.Fprintf(&b, " group=%s", e.Group)
	}
	if e.Tenant != "" {
		fmt.Fprintf(&b, " tenant=%s", e.Tenant)
	}
	if e.MPPDB != "" {
		fmt.Fprintf(&b, " mppdb=%s", e.MPPDB)
	}
	if e.Value != 0 {
		fmt.Fprintf(&b, " value=%s", formatFloat(e.Value))
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	return b.String()
}

// EventLog is a bounded ring of events: once full, each publish overwrites
// the oldest retained event, so publishing never stalls the simulation or a
// request. Readers take copies of the recent events (Recent, Dump). A view (Hub.View) publishes to its root with its own clock, buffering in a
// window of the root's gate until a merge numbers them.
type EventLog struct {
	mu      sync.Mutex
	clock   Clock
	ring    []Event
	start   int
	n       int
	nextSeq uint64
	gate    *sim.Gate
	views   []*EventLog

	root *EventLog // nil on a root log
	buf  []Event   // a view's events published in the open window
}

// NewEventLog builds a log retaining up to capacity recent events.
func NewEventLog(clock Clock, capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{
		clock: clock,
		ring:  make([]Event, capacity),
	}
}

// Publish stamps the event with the next sequence number and the clock's
// current time and appends it to the ring.
// The stamped event is returned (Seq 0 from a view in a window).
func (l *EventLog) Publish(ev Event) Event {
	if ev.At = l.clock.Now(); l.root != nil {
		if l.root.gate.Open() {
			l.buf = append(l.buf, ev)
			return ev
		}
		l = l.root
	}
	l.gate.Guard("the root event log")
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.publishLocked(ev)
}

// flush publishes the events the views buffered in the window in the order
// one goroutine stepping their groups would have: by time, then view.
func (l *EventLog) flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		var next *EventLog
		for _, v := range l.views {
			if len(v.buf) > 0 && (next == nil || v.buf[0].At < next.buf[0].At) {
				next = v
			}
		}
		if next == nil {
			return
		}
		l.publishLocked(next.buf[0])
		next.buf = next.buf[1:]
	}
}

// publishLocked numbers the stamped event and rings it; callers hold l.mu.
func (l *EventLog) publishLocked(ev Event) Event {
	l.nextSeq++
	ev.Seq = l.nextSeq
	if l.n == len(l.ring) {
		l.ring[l.start] = ev
		l.start = (l.start + 1) % len(l.ring)
	} else {
		l.ring[(l.start+l.n)%len(l.ring)] = ev
		l.n++
	}
	return ev
}

// Recent returns up to n of the most recent events, oldest first. n <= 0
// returns everything retained.
func (l *EventLog) Recent(n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.n {
		n = l.n
	}
	out := make([]Event, 0, n)
	for i := l.n - n; i < l.n; i++ {
		out = append(out, l.ring[(l.start+i)%len(l.ring)])
	}
	return out
}

// Total returns how many events have ever been published.
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Dump writes every retained event as one line, oldest first — the
// deterministic record of a run's events.
func (l *EventLog) Dump(w io.Writer) error {
	for _, ev := range l.Recent(0) {
		if _, err := fmt.Fprintln(w, ev.String()); err != nil {
			return err
		}
	}
	return nil
}
