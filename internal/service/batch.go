// Batched submit: the POST /v1/submit-batch endpoint routes many queries
// through one SubmitBatchAt per tenant-group (one domain lock, one Advance).
// A single POST /v1/queries is the one-item case of the same call.
package service

import (
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/queries"
	"repro/internal/runtime"
)

// classFor resolves a submit request's query class: a catalog ID, or raw
// SQL matched against the catalog templates (or classified as ad-hoc). The
// bool reports whether the query hit a known template.
func (s *Server) classFor(q *SubmitRequest) (*queries.Class, bool, error) {
	switch {
	case q.Query != "" && q.SQL != "":
		return nil, false, fmt.Errorf("set either query or sql, not both")
	case q.Query != "":
		cl, ok := s.cat.ByID(strings.ToUpper(strings.TrimSpace(q.Query)))
		if !ok {
			return nil, false, fmt.Errorf("unknown query class %q", q.Query)
		}
		return cl, true, nil
	case q.SQL != "":
		// An ad-hoc class keeps its statement, and q.SQL may alias the
		// request buffer.
		res, err := s.matcher.Classify(strings.Clone(q.SQL))
		if err != nil {
			return nil, false, err
		}
		return res.Class, res.Template, nil
	default:
		return nil, false, fmt.Errorf("missing query or sql")
	}
}

// BatchSubmitRequest is the body of POST /v1/submit-batch.
type BatchSubmitRequest struct {
	Queries []SubmitRequest `json:"queries"`
}

// BatchResult is one item's outcome in a POST /v1/submit-batch response.
// Status is the per-item HTTP status (202, 400, 422, 429, 503, 504); the
// remaining fields mirror the single-submit success and error bodies.
type BatchResult struct {
	Status      int    `json:"status"`
	Tenant      string `json:"tenant"`
	Query       string `json:"query,omitempty"`
	Template    bool   `json:"template,omitempty"`
	RoutedTo    string `json:"routed_to,omitempty"`
	Retries     int    `json:"retries,omitempty"`
	SubmittedAt string `json:"submitted_at,omitempty"`

	Error             string `json:"error,omitempty"`
	Kind              string `json:"kind,omitempty"`
	RetryAfterVirtual string `json:"retry_after_virtual,omitempty"`
	Brownout          bool   `json:"brownout,omitempty"`
	Reason            string `json:"reason,omitempty"`
	Attempts          int    `json:"attempts,omitempty"`
}

// groupBatch is one tenant-group's slice of a submit batch: the indexes of
// the batch items routed to g, in batch order.
type groupBatch struct {
	g    *runtime.GroupRuntime
	idxs []int
}

// batchScratch is the reusable working state of one handleSubmitBatch call:
// the decoded request, per-item results, partition-by-group structures, and
// the per-group item/outcome slices. Pooled so a steady stream of batches
// allocates nothing here.
type batchScratch struct {
	queries []SubmitRequest
	results []outcome
	items   []runtime.BatchItem
	order   []*groupBatch
	byGroup map[*runtime.GroupRuntime]*groupBatch
	free    []*groupBatch
	gitems  []runtime.BatchItem
	outs    []runtime.BatchOutcome
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{byGroup: make(map[*runtime.GroupRuntime]*groupBatch)}
}}

// reset returns per-call structures to their empty state, keeping capacity,
// and drops the strings that alias the request buffer so a pooled scratch
// does not pin a body too large to pool.
func (sc *batchScratch) reset() {
	clear(sc.queries)
	clear(sc.results)
	for _, gb := range sc.order {
		gb.g = nil
		gb.idxs = gb.idxs[:0]
		sc.free = append(sc.free, gb)
	}
	sc.order = sc.order[:0]
	clear(sc.byGroup)
}

// grabGroup checks a groupBatch out of the scratch pool.
func (sc *batchScratch) grabGroup(g *runtime.GroupRuntime) *groupBatch {
	var gb *groupBatch
	if n := len(sc.free); n > 0 {
		gb = sc.free[n-1]
		sc.free[n-1] = nil
		sc.free = sc.free[:n-1]
	} else {
		gb = &groupBatch{}
	}
	gb.g = g
	return gb
}

// handleSubmitBatch routes a batch of queries. Items for the same
// tenant-group share one SubmitBatchAt call (one domain lock, one Advance);
// outcomes are strictly per item — a 429/503/504 on one entry never drops a
// healthy batch-mate. The response is always 200 with a per-item results
// array; each result carries its own status code.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	wb := wireBufPool.Get().(*wireBuf)
	defer wb.release()
	if !readBody(w, r, wb, maxBatchBody) {
		return
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer func() {
		sc.reset()
		batchScratchPool.Put(sc)
	}()
	// The queries' strings alias wb.in: nothing below keeps one past this call.
	var err error
	if sc.queries, err = decodeBatch(wb.in, sc.queries); err != nil {
		writeErr(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	if len(sc.queries) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	n := len(sc.queries)
	if cap(sc.results) < n {
		sc.results = make([]outcome, n)
		sc.items = make([]runtime.BatchItem, n)
	} else {
		sc.results = sc.results[:n]
		sc.items = sc.items[:n]
		clear(sc.items)
	}
	results, items := sc.results, sc.items
	for i := range sc.queries {
		q := &sc.queries[i]
		results[i].tenant = q.Tenant
		class, template, err := s.classFor(q)
		if err != nil {
			results[i].fail = failure{status: http.StatusBadRequest, msg: err.Error()}
			continue
		}
		items[i] = runtime.BatchItem{
			Class:      class,
			BestEffort: q.BestEffort,
		}
		results[i].class, results[i].template = class, template
	}

	// Partition the surviving items by tenant-group, preserving batch order
	// within each group (SubmitBatchAt processes slice order).
	t := s.target()
	plane := s.dep.Plane()
	for i := range items {
		if results[i].fail.status != 0 {
			continue
		}
		g, ref, tenant, ok := plane.Lookup(results[i].tenant)
		if !ok {
			results[i].fail = failure{status: http.StatusUnprocessableEntity,
				msg: "tenant " + results[i].tenant + " not deployed"}
			continue
		}
		// From here on the tenant is the plane's string, not the buffer's.
		items[i].Tenant, results[i].tenant = tenant, tenant
		if ref != runtime.NoTenantRef {
			items[i].Ref = ref
			items[i].HasRef = true
		}
		gb := sc.byGroup[g]
		if gb == nil {
			gb = sc.grabGroup(g)
			sc.byGroup[g] = gb
			sc.order = append(sc.order, gb)
		}
		gb.idxs = append(gb.idxs, i)
	}
	for _, gb := range sc.order {
		m := len(gb.idxs)
		if cap(sc.gitems) < m {
			sc.gitems = make([]runtime.BatchItem, m)
			sc.outs = make([]runtime.BatchOutcome, m)
		}
		gitems, outs := sc.gitems[:m], sc.outs[:m]
		for k, i := range gb.idxs {
			gitems[k] = items[i]
		}
		gb.g.SubmitBatchAt(t, gitems, outs, s.retry)
		now := gb.g.Now()
		for k, i := range gb.idxs {
			res := &results[i]
			if err := outs[k].Err; err != nil {
				res.fail = s.classify(err)
				continue
			}
			res.db, res.retries, res.at = outs[k].DB, outs[k].Retries, now
		}
	}
	wb.out = appendBatchResponse(wb.out[:0], results)
	writeWire(w, http.StatusOK, wb.out)
}

// BatchSubmitResponse is the body of a POST /v1/submit-batch response.
type BatchSubmitResponse struct {
	Results  []BatchResult `json:"results"`
	Accepted int           `json:"accepted"`
	Failed   int           `json:"failed"`
}
