package main

import (
	"bytes"
	"net/http"
	"time"

	"repro/internal/sim"
)

// vclock is the wall clock injected into the service: the benchmark sets it
// to the logged arrival time of the request it is about to send, so at
// TimeScale 1 the simulated outcome depends on the logs alone, not on how
// fast the host runs.
type vclock struct {
	base time.Time
	cur  time.Time
}

func newVClock() *vclock {
	base := time.Unix(0, 0)
	return &vclock{base: base, cur: base}
}

func (c *vclock) set(t sim.Time) { c.cur = c.base.Add(time.Duration(t)) }
func (c *vclock) now() time.Time { return c.cur }

// recorder is the smallest ResponseWriter that still lets the benchmark check
// a response: it keeps the status and the body of the last response in a
// buffer it reuses, and counts bytes.
type recorder struct {
	hdr    http.Header
	status int
	body   []byte
	bytes  int64
}

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(s int)   { r.status = s }
func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.body = append(r.body, p...)
	r.bytes += int64(len(p))
	return len(p), nil
}

// bodyReader is a request body that can be pointed at the next payload
// without allocating.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// client is the closed-loop load generator: one goroutine that calls the
// handler's ServeHTTP directly and sends the next request when the previous
// one has returned. Going through net/http or httptest would put their cost,
// several times the handler's own, into every sample.
type client struct {
	h    http.Handler
	clk  *vclock
	rw   recorder
	body bodyReader
	// post is the one write request, reused for every body; get holds one
	// request per read target.
	post *http.Request
	get  map[string]*http.Request
}

// newClient makes a client whose writes go to postPath.
func newClient(h http.Handler, clk *vclock, postPath string) *client {
	c := &client{h: h, clk: clk, rw: recorder{hdr: make(http.Header)},
		post: mustRequest(http.MethodPost, postPath), get: make(map[string]*http.Request)}
	c.post.Body = &c.body
	return c
}

func mustRequest(method, target string) *http.Request {
	req, err := http.NewRequest(method, "http://thrifty.bench"+target, nil)
	if err != nil {
		panic(err) // the targets are constants of this package
	}
	return req
}

// send issues one request at virtual time at and returns the status and the
// wall time ServeHTTP took. The response body stays readable in c.rw.body
// until the next send.
func (c *client) send(req *http.Request, at sim.Time) (int, time.Time, time.Duration) {
	c.clk.set(at)
	c.rw.status = 0
	c.rw.body = c.rw.body[:0]
	t0 := time.Now()
	c.h.ServeHTTP(&c.rw, req)
	return c.rw.status, t0, time.Since(t0)
}

// doPost sends body to the client's write path.
func (c *client) doPost(body []byte, at sim.Time) (int, time.Time, time.Duration) {
	c.body.Reset(body)
	return c.send(c.post, at)
}

// doGet reads target, reusing one request per target.
func (c *client) doGet(target string, at sim.Time) (int, time.Time, time.Duration) {
	req := c.get[target]
	if req == nil {
		req = mustRequest(http.MethodGet, target)
		c.get[target] = req
	}
	return c.send(req, at)
}

// noopHandler answers like an accepted submit without doing any work; the
// client's cost against it is the harness share of every request.
var noopHandler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write([]byte(`{"accepted":1}`)) // recorder.Write cannot fail
})
