// The wire codec of POST /v1/queries and POST /v1/submit-batch. Every query a
// tenant runs passes through it, so it does by hand what encoding/json did by
// reflection: a scanner decodes the request out of a pooled body buffer, and
// append-style encoders write the response into a pooled []byte that goes out
// in one Write. The bytes are encoding/json's (sorted keys for the single
// bodies, struct order for the batch, HTML-safe escaping, trailing newline),
// pinned by codec_test.go; fuzz_test.go pins that the decoder accepts, rejects
// and decodes like encoding/json, except that it refuses non-white space after
// the top-level value and bodies over the endpoint's cap. GET /v1/slo, which
// an operator's dashboard polls, is encoded the same way; the cold paths
// (writeErr, the other GETs) stay on encoding/json.
package service

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/admission"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/sim"
)

const (
	maxSubmitBody = 1 << 20  // POST /v1/queries
	maxBatchBody  = 16 << 20 // POST /v1/submit-batch
	maxPooledBuf  = 64 << 10 // larger buffers are dropped, not pooled
	maxDepth      = 10000    // encoding/json's nesting limit
)

// wireBuf is one request's buffers: the body as read, the response as encoded.
type wireBuf struct{ in, out []byte }

var wireBufPool = sync.Pool{New: func() any { return new(wireBuf) }}

// release returns wb to the pool; strings decoded from wb.in die with it.
func (wb *wireBuf) release() {
	if cap(wb.in) > maxPooledBuf || cap(wb.out) > maxPooledBuf {
		*wb = wireBuf{}
	}
	wireBufPool.Put(wb)
}

// readBody reads the request body into wb.in, holding at most limit+1 bytes.
// On failure it has answered: 413 past the limit, 400 for a failed read.
func readBody(w http.ResponseWriter, r *http.Request, wb *wireBuf, limit int) bool {
	buf := wb.in[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):min(cap(buf), limit+1)])
		buf = buf[:len(buf)+n]
		wb.in = buf
		switch {
		case len(buf) > limit:
			writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", limit)
			return false
		case err == io.EOF:
			return true
		case err != nil:
			writeErr(w, http.StatusBadRequest, "bad body: %v", err)
			return false
		}
	}
}

var jsonContentType = []string{"application/json"}

// writeWire sends an encoded body in one Write. The Content-Type value is one
// shared, read-only slice: Header().Set would allocate one per response.
func writeWire(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body) // as in writeJSON, a client that went away is not our error
}

// scanner walks one JSON document, accepting the grammar encoding/json does.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) fail(msg string) error { return fmt.Errorf("byte %d: %s", s.i, msg) }

// peek skips white space and returns the next byte, 0 at the end of input.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
	}
	return 0
}

// end checks that only white space follows the top-level value.
func (s *scanner) end() error {
	if s.peek(); s.i < len(s.b) {
		return s.fail("data after the top-level value")
	}
	return nil
}

// next moves to the next item of the open container: false past its closing
// byte, true before an item, past the comma every item but the first needs.
func (s *scanner) next(closer byte, first bool) (bool, error) {
	switch c := s.peek(); {
	case c == closer:
		s.i++
		return false, nil
	case first:
	case c != ',':
		return false, s.fail("want ',' or '" + string(closer) + "'")
	default:
		s.i++
	}
	return true, nil
}

// key is next for an object: it returns the member's name and stops at its
// value.
func (s *scanner) key(first bool) (string, bool, error) {
	more, err := s.next('}', first)
	if err != nil || !more {
		return "", false, err
	}
	s.peek()
	name, err := s.str()
	if err == nil && s.peek() != ':' {
		err = s.fail("want ':'")
	}
	s.i++
	return name, true, err
}

// isField reports whether a key selects the struct field tagged name:
// exactly, or under Unicode simple case folding as in encoding/json.
func isField(key, name string) bool { return key == name || strings.EqualFold(key, name) }

// str reads the string at the scanner. Valid UTF-8 without escapes comes
// back aliasing the input, so it lives as long as the buffer; anything else
// is decoded into a new string.
func (s *scanner) str() (string, error) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return "", s.fail("want a string")
	}
	start, ascii := s.i+1, true
	for s.i = start; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			seg := s.b[start:s.i]
			if !ascii && !utf8.Valid(seg) {
				return s.unquote(start)
			}
			s.i++
			return unsafe.String(unsafe.SliceData(seg), len(seg)), nil
		case c == '\\':
			return s.unquote(start)
		case c < ' ':
			return "", s.fail("control character in a string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", s.fail("unterminated string")
}

// unquote decodes the string that starts at start as encoding/json does:
// escapes resolved, a surrogate pair joined, a lone surrogate and each byte of
// invalid UTF-8 replaced by U+FFFD.
func (s *scanner) unquote(start int) (string, error) {
	var out []byte
	for s.i = start; s.i < len(s.b); {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return string(out), nil
		case c < ' ':
			return "", s.fail("control character in a string")
		case c != '\\':
			r, size := utf8.DecodeRune(s.b[s.i:])
			out = utf8.AppendRune(out, r)
			s.i += size
			continue
		}
		rest := s.b[s.i+1:]
		if len(rest) == 0 {
			break
		}
		if k := strings.IndexByte(`"\/bfnrt`, rest[0]); k >= 0 {
			out = append(out, "\"\\/\b\f\n\r\t"[k])
			s.i += 2
			continue
		}
		r := hex4(rest)
		if r < 0 {
			return "", s.fail("bad escape")
		}
		s.i += 6
		if utf16.IsSurrogate(r) {
			// The low half must follow as its own escape; if it does not,
			// this half is replaced and what follows is read on its own.
			lo := rune(-1)
			if s.i < len(s.b) && s.b[s.i] == '\\' {
				lo = hex4(s.b[s.i+1:])
			}
			if r = utf16.DecodeRune(r, lo); r != unicode.ReplacementChar {
				s.i += 6
			}
		}
		out = utf8.AppendRune(out, r)
	}
	s.i = len(s.b)
	return "", s.fail("unterminated string")
}

// hex4 parses the XXXX of b = `uXXXX…`, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 5 || b[0] != 'u' {
		return -1
	}
	v, err := strconv.ParseUint(string(b[1:5]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// value reads one value of any type, validating all of it. It returns the
// value's first byte as its kind ('0' for every number) and a string's text.
// depth counts the containers open around it.
func (s *scanner) value(depth int) (kind byte, text string, err error) {
	kind = s.peek()
	switch {
	case kind == '"':
		text, err = s.str()
	case kind == '{' || kind == '[':
		if depth >= maxDepth {
			return kind, "", s.fail("exceeded max depth")
		}
		s.i++
		for first, more := true, true; ; first = false {
			if kind == '[' {
				more, err = s.next(']', first)
			} else {
				_, more, err = s.key(first)
			}
			if err != nil || !more {
				break
			}
			if _, _, err = s.value(depth + 1); err != nil {
				break
			}
		}
	case kind == '-' || '0' <= kind && kind <= '9':
		kind, err = '0', s.number()
	case s.word("true"), s.word("false"), s.word("null"):
	default:
		err = s.fail("want a value")
	}
	return kind, text, err
}

// word consumes a literal if the input continues with it.
func (s *scanner) word(w string) bool {
	if len(s.b)-s.i < len(w) || string(s.b[s.i:s.i+len(w)]) != w {
		return false
	}
	s.i += len(w)
	return true
}

// number reads -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) number() error {
	one := func(set string) bool {
		ok := s.i < len(s.b) && strings.IndexByte(set, s.b[s.i]) >= 0
		if ok {
			s.i++
		}
		return ok
	}
	digits := func() bool {
		from := s.i
		for one("0123456789") {
		}
		return s.i > from
	}
	one("-")
	ok := one("0") || digits()
	if ok && one(".") {
		ok = digits()
	}
	if ok && one("eE") {
		one("+-")
		ok = digits()
	}
	if !ok {
		return s.fail("bad number")
	}
	return nil
}

// null reads a value where an object or array was wanted: null is accepted
// (encoding/json leaves the destination alone), any other type is an error.
func (s *scanner) null(depth int) error {
	kind, _, err := s.value(depth)
	if err == nil && kind != 'n' {
		err = s.fail("wrong type")
	}
	return err
}

// submit decodes one SubmitRequest object into req, merging: a member the
// object does not name keeps its value, of a repeated member the last wins,
// null changes nothing.
func (s *scanner) submit(req *SubmitRequest, depth int) error {
	if s.peek() != '{' {
		return s.null(depth)
	}
	s.i++
	for first := true; ; first = false {
		key, more, err := s.key(first)
		if err != nil || !more {
			return err
		}
		kind, text, err := s.value(depth + 1)
		if err != nil {
			return err
		}
		var dst *string
		switch {
		case isField(key, "tenant"):
			dst = &req.Tenant
		case isField(key, "query"):
			dst = &req.Query
		case isField(key, "sql"):
			dst = &req.SQL
		case !isField(key, "best_effort") || kind == 'n':
			continue
		case kind != 't' && kind != 'f':
			return s.fail("best_effort: want a boolean")
		default:
			req.BestEffort = kind == 't'
			continue
		}
		if kind == '"' {
			*dst = text
		} else if kind != 'n' {
			return s.fail(key + ": want a string")
		}
	}
}

// decodeSubmit decodes the body of POST /v1/queries; req's strings may alias
// body (see str).
func decodeSubmit(body []byte, req *SubmitRequest) error {
	s := scanner{b: body}
	if err := s.submit(req, 0); err != nil {
		return err
	}
	return s.end()
}

// decodeBatch decodes the body of POST /v1/submit-batch into qs[:0], reusing
// its capacity, and returns the queries; their strings may alias body.
//
// A body that repeats "queries" decodes as encoding/json decodes it into a
// fresh struct: element i of a later array merges into element i of the
// earlier ones, while null or an empty array forgets them. used counts the
// slots this body has written; those past it hold an earlier request's
// values and are zeroed on first use.
func decodeBatch(body []byte, qs []SubmitRequest) ([]SubmitRequest, error) {
	s := scanner{b: body}
	qs = qs[:cap(qs)]
	n, used := 0, 0
	if s.peek() != '{' {
		if err := s.null(0); err != nil {
			return nil, err
		}
		return qs[:0], s.end()
	}
	s.i++
	for first := true; ; first = false {
		key, more, err := s.key(first)
		if err != nil {
			return nil, err
		}
		if !more {
			return qs[:n], s.end()
		}
		switch {
		case !isField(key, "queries"):
			_, _, err = s.value(1)
		case s.peek() != '[':
			n, used, err = 0, 0, s.null(1)
		default:
			s.i++
			for n = 0; err == nil; n++ {
				if more, err = s.next(']', n == 0); err != nil || !more {
					break
				}
				if n == len(qs) {
					qs = append(qs, SubmitRequest{})
					qs = qs[:cap(qs)]
				}
				if n >= used {
					qs[n], used = SubmitRequest{}, n+1
				}
				err = s.submit(&qs[n], 2)
			}
			if n == 0 {
				used = 0
			}
		}
		if err != nil {
			return nil, err
		}
	}
}

// failure is a rejected submit in wire form: the HTTP status, the message
// and, for the typed admission and retry errors, the kind with its fields.
type failure struct {
	status int
	msg    string
	kind   string // kindContract, kindShed, kindTimeout, or "" for a plain error
	// backoff is the virtual-time wait before a retry can succeed. All three
	// kinds turn it into Retry-After; 429 and 503 also carry it in the body.
	backoff  sim.Time
	brownout bool   // kindContract
	reason   string // kindShed
	attempts int    // kindTimeout
}

const (
	kindContract = "contract_exceeded"
	kindShed     = "shed"
	kindTimeout  = "timeout"
)

// classify maps a submit error to its wire form, shared by the single and
// batch endpoints so both speak the same typed errors.
func (s *Server) classify(err error) failure {
	var ce *admission.ContractExceededError
	var se *admission.ShedError
	var te *runtime.TimeoutError
	switch {
	case errors.As(err, &ce):
		return failure{status: http.StatusTooManyRequests, msg: ce.Error(), kind: kindContract,
			backoff: ce.RetryAfter, brownout: ce.Brownout}
	case errors.As(err, &se):
		return failure{status: http.StatusServiceUnavailable, msg: se.Error(), kind: kindShed,
			backoff: se.RetryAfter, reason: se.Reason}
	case errors.As(err, &te):
		return failure{status: http.StatusGatewayTimeout, msg: te.Error(), kind: kindTimeout,
			backoff: sim.Duration(s.retry.Backoff), attempts: te.Attempts}
	}
	return failure{status: http.StatusUnprocessableEntity, msg: err.Error()}
}

// outcome is one query's result as the encoders take it; fail.status is 0 for
// an accepted query.
type outcome struct {
	tenant   string
	class    *queries.Class
	template bool
	db       string
	retries  int
	at       sim.Time // the group's clock after the submit
	fail     failure
}

// appendString appends s as a JSON string, escaped as encoding/json escapes
// by default: quote, backslash, control characters, the HTML-sensitive <, >
// and &, U+2028 and U+2029, and U+FFFD for each byte of invalid UTF-8.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if size > 1 && r != '\u2028' && r != '\u2029' {
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		switch k := strings.IndexByte("\"\\\b\f\n\r\t", c); {
		case k >= 0:
			b = append(b, '\\', `"\bfnrt`[k])
		case c < utf8.RuneSelf:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		case size == 1:
			b = append(b, `\ufffd`...)
		default:
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// The append helpers below take the member's key as it goes on the wire:
// quoted, with its colon, the comma before it, and for a time the value's
// opening quote.
func appendStr(b []byte, key, v string) []byte { return appendString(append(b, key...), v) }
func appendInt[T int | int64](b []byte, key string, v T) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}
func appendTime(b []byte, key string, t sim.Time) []byte {
	return append(t.AppendFormat(append(b, key...)), '"')
}

// appendFloat appends f as encoding/json encodes a float64: the shortest
// round-trip form, with an exponent below 1e-6 and from 1e21 on, its two
// digits cut to one when the first is 0 (1e-7, not 1e-07). f is finite:
// encoding/json refuses NaN and ±Inf.
func appendFloat(b []byte, key string, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(append(b, key...), f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendSLO appends the body of GET /v1/slo: the top-level keys sorted as
// encoding/json sorts a map's, each tenant in struct order, leaving out what
// its omitempty tags leave out.
func appendSLO(b []byte, p, overall float64, tenants []sloTenant) []byte {
	b = appendFloat(b, `{"overall_attainment":`, overall)
	b = append(appendFloat(b, `,"p":`, p), `,"tenants":[`...)
	for i := range tenants {
		tn := &tenants[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendStr(b, `{"tenant":`, tn.Tenant)
		b = appendInt(appendInt(b, `,"met":`, tn.Met), `,"missed":`, tn.Missed)
		b = appendFloat(appendFloat(b, `,"attainment":`, tn.Attainment), `,"worst_normalized":`, tn.WorstNormalized)
		b = strconv.AppendBool(append(b, `,"ok":`...), tn.OK)
		if tn.Throttled != 0 {
			b = appendInt(b, `,"throttled":`, tn.Throttled)
		}
		if tn.Shed != 0 {
			b = appendInt(b, `,"shed":`, tn.Shed)
		}
		b = append(b, '}')
	}
	return append(b, ']', '}', '\n')
}

// appendAccepted appends the 202 body of POST /v1/queries, keys sorted as
// encoding/json sorts a map's.
func appendAccepted(b []byte, o *outcome) []byte {
	b = appendStr(b, `{"query":`, o.class.ID)
	b = appendInt(b, `,"retries":`, o.retries)
	b = appendStr(b, `,"routed_to":`, o.db)
	b = appendTime(b, `,"submitted_at":"`, o.at)
	b = strconv.AppendBool(append(b, `,"template":`...), o.template)
	b = appendStr(b, `,"tenant":`, o.tenant)
	return append(b, '}', '\n')
}

// appendFailure appends the error body of POST /v1/queries, keys sorted;
// which keys it has depends on the kind alone, not on their values.
func appendFailure(b []byte, f *failure) []byte {
	b = append(b, '{')
	switch f.kind {
	case kindTimeout:
		b = append(appendInt(b, `"attempts":`, f.attempts), ',')
	case kindContract:
		b = append(strconv.AppendBool(append(b, `"brownout":`...), f.brownout), ',')
	}
	b = appendStr(b, `"error":`, f.msg)
	if f.kind != "" {
		b = appendStr(b, `,"kind":`, f.kind)
	}
	if f.kind == kindShed {
		b = appendStr(b, `,"reason":`, f.reason)
	}
	if f.kind == kindContract || f.kind == kindShed {
		b = appendTime(b, `,"retry_after_virtual":"`, f.backoff)
	}
	return append(b, '}', '\n')
}

// appendBatchResult appends one BatchResult in struct order, leaving out what
// its omitempty tags leave out.
func appendBatchResult(b []byte, o *outcome) []byte {
	f := &o.fail
	if f.status == 0 {
		b = appendStr(b, `{"status":202,"tenant":`, o.tenant)
		if o.class.ID != "" {
			b = appendStr(b, `,"query":`, o.class.ID)
		}
		if o.template {
			b = append(b, `,"template":true`...)
		}
		if o.db != "" {
			b = appendStr(b, `,"routed_to":`, o.db)
		}
		if o.retries != 0 {
			b = appendInt(b, `,"retries":`, o.retries)
		}
		return append(appendTime(b, `,"submitted_at":"`, o.at), '}')
	}
	b = appendStr(appendInt(b, `{"status":`, f.status), `,"tenant":`, o.tenant)
	if f.msg != "" {
		b = appendStr(b, `,"error":`, f.msg)
	}
	if f.kind != "" {
		b = appendStr(b, `,"kind":`, f.kind)
	}
	if f.kind == kindContract || f.kind == kindShed {
		b = appendTime(b, `,"retry_after_virtual":"`, f.backoff)
	}
	if f.brownout {
		b = append(b, `,"brownout":true`...)
	}
	if f.reason != "" {
		b = appendStr(b, `,"reason":`, f.reason)
	}
	if f.attempts != 0 {
		b = appendInt(b, `,"attempts":`, f.attempts)
	}
	return append(b, '}')
}

// appendBatchResponse appends a BatchSubmitResponse.
func appendBatchResponse(b []byte, results []outcome) []byte {
	b = append(b, `{"results":[`...)
	accepted := 0
	for i := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendBatchResult(b, &results[i])
		if results[i].fail.status == 0 {
			accepted++
		}
	}
	b = appendInt(b, `],"accepted":`, accepted)
	return append(appendInt(b, `,"failed":`, len(results)-accepted), '}', '\n')
}
