package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The differential tests hold the hand-written decoder to the one it
// replaced, json.NewDecoder(body).Decode(&v): for any input both accept or
// both reject, and on accept every decoded field is equal. That covers
// case-insensitive keys, skipped unknown members, repeated keys (the last one
// wins, a repeated "queries" merges element-wise), every escape, surrogate
// pairs and lone halves, invalid UTF-8, null, wrong types and the nesting
// limit.
//
// The deliberate exceptions, all of them:
//
//  1. Trailing data. json.Decoder reads one value and ignores what follows,
//     so `{"tenant":"a","query":"Q1"} junk` was accepted. The codec rejects
//     anything but white space after the top-level value. The tests demand
//     that rejection, and that the value alone still decodes the same.
//  2. Size. The handlers refuse a body over maxSubmitBody / maxBatchBody with
//     413 before the decoder sees it; json.Decoder read without bound. That
//     is readBody's doing, checked in TestBodyStrictness, not the decoder's.

// jsonValueEnd decodes body's first value into v the legacy way and reports
// where that value ended and whether anything but white space follows it.
func jsonValueEnd(body []byte, v any) (err error, end int, trailing bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	err = dec.Decode(v)
	end = int(dec.InputOffset())
	return err, end, err == nil && len(bytes.TrimLeft(body[end:], " \t\r\n")) > 0
}

func checkDecodeSubmit(t *testing.T, body []byte) {
	t.Helper()
	var want SubmitRequest
	wantErr, end, trailing := jsonValueEnd(body, &want)
	// The destination starts non-zero nowhere in the handlers, so null and
	// absent members leave zero values in both decoders.
	var got SubmitRequest
	gotErr := decodeSubmit(body, &got)
	if trailing { // exception 1
		if gotErr == nil {
			t.Fatalf("%q: accepted with trailing data", body)
		}
		got = SubmitRequest{}
		gotErr = decodeSubmit(body[:end], &got)
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: codec error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if wantErr == nil && got != want {
		t.Fatalf("%q: codec %+v, encoding/json %+v", body, got, want)
	}
}

func checkDecodeBatch(t *testing.T, body []byte) {
	t.Helper()
	var want BatchSubmitRequest
	wantErr, end, trailing := jsonValueEnd(body, &want)
	// The codec decodes into a recycled slice; what an earlier request left
	// there must never show.
	stale := func() []SubmitRequest {
		qs := make([]SubmitRequest, 3, 5)
		for i := range qs[:cap(qs)] {
			qs[:cap(qs)][i] = SubmitRequest{Tenant: "stale", Query: "stale", SQL: "stale", BestEffort: true}
		}
		return qs
	}
	got, gotErr := decodeBatch(body, stale())
	if trailing { // exception 1
		if gotErr == nil {
			t.Fatalf("%q: accepted with trailing data", body)
		}
		got, gotErr = decodeBatch(body[:end], stale())
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: codec error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if len(got) != len(want.Queries) {
		t.Fatalf("%q: codec %d queries %+v, encoding/json %d %+v", body, len(got), got, len(want.Queries), want.Queries)
	}
	for i := range got {
		if got[i] != want.Queries[i] {
			t.Fatalf("%q: query %d: codec %+v, encoding/json %+v", body, i, got[i], want.Queries[i])
		}
	}
}

// submitSeeds are request bodies from service_test.go and batch_test.go (as
// json.Marshal renders them) plus one case per rule the decoder implements.
var submitSeeds = []string{
	// What the existing tests post.
	`{"tenant":"t1","query":"tpch-q6"}`, `{"tenant":"ghost","query":"TPCH-Q1"}`, `{"tenant":"t1"}`,
	`{"tenant":"t1","sql":"select count(*) from lineitem where l_tax > 0.01"}`,
	`{"tenant":"t1","query":"TPCH-Q1","sql":"select 1 from t"}`, `{"tenant":"agg","query":"TPCH-Q6","best_effort":true}`,
	// White space, null, wrong top-level types, nothing.
	" \t\r\n{ \"tenant\" : \"a\" , \"query\":\"q\" } \n", "\v{}", "{\f}", `null`, ` null `, `nul`, `[]`, `5`, `"s"`, `true`, ``, ` `,
	// Exception 1.
	`{"tenant":"a","query":"Q1"} junk`, `{} {}`, `{}{`, `nullx`, `null null`, `{}]`,
	// Keys: case folding (\u017f is the long s, which folds to s), escapes, unknown members.
	`{"TENANT":"a","Query":"q","SQL":"s","Best_Effort":true}`, "{\"\u017fql\":\"x\",\"be\u017ft_effort\":true,\"\u017fQL \":\"y\"}", `{"ten\u0061nt":"a","\u0074enant":"b"}`,
	`{"\u212auery":"q","tenant\u0000":"a","tenan":"b","tenantt":"c","":"d"}`, "{\"\u212auery\":\"q\"}", "{\"ten\xffant\":\"a\",\"\xff\":1}",
	`{"x":{"a":[1,2.5e-3,true,false,null,"s",{}],"b":{}},"tenant":"a","y":[],"z":[[[]]]}`,
	// Repeated members, null members.
	`{"tenant":"a","tenant":"b","tenant":null,"best_effort":true,"best_effort":null}`, `{"best_effort":true,"best_effort":false}`,
	// Strings: escapes, surrogates, invalid UTF-8, control characters.
	`{"tenant":"a\u0041\n\"\\\/\b\f\r\t"}`, `{"tenant":"\ud834\udd1e"}`, `{"tenant":"\ud800"}`, `{"tenant":"\ud800\u0041"}`, `{"tenant":"\udc00\ud800"}`,
	`{"tenant":"\ud800\ud800\udc00"}`, `{"tenant":"\ud800\n"}`, `{"tenant":"\ud800x\udc00"}`, `{"tenant":"\uD834\uDD1E\ufffd"}`, `{"tenant":"\u12"}`, `{"tenant":"\x41"}`,
	`{"tenant":"\u00zz"}`, `{"tenant":"\u+123"}`, `{"tenant":"a\`, `{"tenant":"a\"`, `{"tenant":"a`, "{\"tenant\":\"a\xffb\xe2\x82\"}", "{\"tenant\":\"héllo ✓\"}",
	"{\"tenant\":\"a\nb\"}", "{\"tenant\":\"a\x00b\"}", "{\"tenant\":\"a\x7fb\"}", "{\"tenant\":\"\xed\xa0\x80\"}",
	// Numbers and literals in skipped members.
	`{"n":-0}`, `{"n":01}`, `{"n":1.}`, `{"n":.5}`, `{"n":1e}`, `{"n":1e+5}`, `{"n":1E-2}`, `{"n":-}`, `{"n":+1}`, `{"n":0x10}`, `{"n":1_0}`, `{"n":1.5.5}`, `{"n":--1}`,
	`{"n":1e5e5}`, `{"n":0.0e-0}`, `{"n":tru}`, `{"n":nulll}`, `{"n":truefalse}`, `{"n":True}`, `{"n":NaN}`,
	// Wrong types for known members.
	`{"tenant":5}`, `{"tenant":{}}`, `{"tenant":["a"]}`, `{"tenant":true}`, `{"best_effort":"true"}`, `{"best_effort":1}`, `{"best_effort":{}}`, `{"sql":false}`,
	// Broken structure.
	`{`, `{"tenant"}`, `{"tenant":}`, `{,}`, `{"a":1,}`, `{"a":[1,]}`, `{"a":[,1]}`, `{"a":[1 2]}`, `{"a":1 "b":2}`, `{"a"::1}`, `{a:1}`, `{'a':1}`, `{"a":1}}`, `{"a":[}`, `{"a":{]}`,
}

var batchSeeds = []string{
	`{"queries":[{"tenant":"good","query":"TPCH-Q6"},{"tenant":"ghost","query":"TPCH-Q6"},{"tenant":"good","query":"NOPE"},{"tenant":"agg","query":"TPCH-Q6"}]}`,
	`{"queries":[{"tenant":"a","query":"q"},{"tenant":"b","sql":"select 1","best_effort":true}]}`, `{"queries":[]}`, `{"queries":null}`, `{}`, `null`, `[]`, `7`, ``,
	`{"QUERIES":[null,{},{"TENANT":"a"}]}`, `{"queries":[null]}`, `{"other":[{"tenant":"x"}],"queries":[{"tenant":"a"}],"more":{"queries":[1]}}`,
	// A repeated member merges element-wise; null and [] forget.
	`{"queries":[{"tenant":"a","query":"x"},{"tenant":"b"}],"queries":[{"query":"y"}]}`,
	`{"queries":[{"tenant":"a"},{"tenant":"b"},{"tenant":"c"}],"queries":[{"query":"x"}],"queries":[{"sql":"p"},{"sql":"q"}]}`,
	`{"queries":[{"tenant":"a"},{"tenant":"b"}],"queries":null,"queries":[{"query":"x"},{"query":"y"},{"query":"z"}]}`,
	`{"queries":[{"tenant":"a"},{"tenant":"b"}],"queries":[],"Queries":[{"query":"x"},{}]}`, `{"queries":[{"tenant":"a"}],"queries":[null,null]}`,
	`{"queries":[{"tenant":"a"},{"tenant":"b"},{"tenant":"c"},{"tenant":"d"},{"tenant":"e"},{"tenant":"f"}],"queries":[{}],"queries":[{},{},{},{},{},{},{},{}]}`,
	// Wrong types, broken structure, exception 1.
	`{"queries":{}}`, `{"queries":"x"}`, `{"queries":1}`, `{"queries":[1]}`, `{"queries":[[]]}`, `{"queries":[{"tenant":1}]}`, `{"queries":[{"tenant":"a"},]}`, `{"queries":[,]}`,
	`{"queries":[{"tenant":"a"} {"tenant":"b"}]}`, `{"queries":[{"tenant":"a"}]`, `{"queries":[{"tenant":"a"}]} x`, `{"queries":[{"tenant":"a"}]}]`, `{"queries":[{}],"x":[[[]]]}`,
}

func TestDecodeAgreesWithJSON(t *testing.T) {
	for _, body := range append(append([]string{}, submitSeeds...), batchSeeds...) {
		checkDecodeSubmit(t, []byte(body))
		checkDecodeBatch(t, []byte(body))
	}
	// The nesting limit: maxDepth containers are fine, one more is not,
	// wherever the nesting sits.
	for _, n := range []int{maxDepth - 3, maxDepth - 2, maxDepth - 1, maxDepth} {
		nest := strings.Repeat("[", n) + strings.Repeat("]", n)
		checkDecodeSubmit(t, []byte(`{"x":`+nest+`,"tenant":"a"}`))
		checkDecodeBatch(t, []byte(`{"queries":[{"x":`+nest+`}]}`))
		checkDecodeBatch(t, []byte(`{"x":`+nest+`}`))
	}
}

func FuzzDecodeSubmit(f *testing.F) {
	for _, s := range submitSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecodeSubmit)
}

func FuzzDecodeBatch(f *testing.F) {
	for _, s := range batchSeeds {
		f.Add([]byte(s))
	}
	for _, s := range submitSeeds {
		f.Add([]byte(`{"queries":[` + s + `]}`))
	}
	f.Fuzz(checkDecodeBatch)
}
