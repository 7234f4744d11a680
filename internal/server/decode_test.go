package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qav/internal/reqjson"
)

// reflectiveDecode is the request decoder the scanner replaced, kept as
// its oracle: encoding/json with DisallowUnknownFields, and nothing but
// whitespace after the value.
func reflectiveDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("unexpected data after JSON object")
	}
	return nil
}

// sameDecode decodes body as a T both ways and fails unless the
// verdicts agree and, on acceptance, the values are deeply equal.
func sameDecode[T any, PT interface {
	*T
	member(*reqjson.Decoder) bool
}](t *testing.T, body []byte) {
	t.Helper()
	var want, got T
	wantErr := reflectiveDecode(body, &want)
	gotErr := reqjson.Decode(body, PT(&got).member)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%T %q: encoding/json says %v, the scanner %v", got, body, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%T %q: encoding/json decodes %#v, the scanner %#v", got, body, want, got)
	}
}

// decodeSeeds are hostile request bodies: escapes, surrogate pairs,
// lone surrogates, invalid UTF-8, case-folded, duplicate and escaped
// member names, nulls, nested unknown members, trailing data, and
// top-level values other than an object.
var decodeSeeds = []string{
	`{"query":"//a[b]","view":"//a"}`,
	`{"query":"//a","view":"//a","schema":"a -> b","recursive":true}`,
	`{"recursive":false,"recursive":true}`,
	`{"recursive":"true"}`,
	`{"recursive":1}`,
	`{"query":"//a\t\"\\\/\b\f\n\r","view":"😀"}`,
	`{"query":"\ud800","view":"\udc00\ud800x"}`,
	`{"query":"\ud800A","view":"\ud83d😀"}`,
	"{\"query\":\"\xff\xfe\xed\xa0\x80\",\"view\":\"\xe2\x82\xac\"}",
	`{"query":"\x"}`,
	`{"query":"\u12"}`,
	"{\"query\":\"a\nb\"}",
	`{"QUERY":"a","View":"b","ſchema":"c","query":"d"}`,
	`{"query":"a","query":"b","query":null}`,
	`{"query":null,"view":null,"schema":null,"recursive":null}`,
	`{"bogus":{"x":[1,2,{"y":null}]}}`,
	`{"query":"a"}{"query":"b"}`,
	`{"query":"a"} x`,
	"{\"query\":\"a\"} \t\r\n",
	`null`,
	` null `,
	`[]`,
	`[{"query":"a"}]`,
	`42`,
	`"query"`,
	``,
	`   `,
	`{`,
	`{"query"`,
	`{"query":}`,
	`{"query":"a",}`,
	`{,"query":"a"}`,
	`{"query":"a" "view":"b"}`,
	`{"query":-0.5e+3}`,
	`{"query":tru}`,
	`{"query":nul}`,
	`{"items":[{"query":"a","view":"b"},null,{"view":"c"}]}`,
	`{"items":[{"query":"a","view":"b"},{"query":"x"},{"schema":"s"}],"items":[{"query":"c"}],"items":[null,null,{}]}`,
	`{"items":null}`,
	`{"items":[]}`,
	`{"items":[],"items":[null]}`,
	`{"items":{}}`,
	`{"items":[1]}`,
	`{"items":[{"bogus":1}]}`,
	`{"ITEMS":[{"Query":"a","recurſive":true}]}`,
	`{"query":"//a","viewName":"v"}`,
	`{"query":"//a","view":"//a","document":"<a><b/></a>"}`,
	`{"name":"src","view":"//a","document":"<a/>"}`,
	`{"p":"//a/b","q":"//a//b","schema":""}`,
	`{"P":"x","Q":"y"}`,
	`{"K":"kelvin","k":1}`,
	`{"viewname":"v","VIEWNAME":"w"}`,
	"{\"query\":\"a\"}\x00",
	"\ufeff{}",
	`{"a":[[[[[[[[[[]]]]]]]]]]}`,
}

// FuzzDecodeRequest holds the scanner to encoding/json on every request
// type: the same accept/reject verdict and, on acceptance, the same
// value.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameDecode[rewriteRequest](t, body)
		sameDecode[batchRewriteRequest](t, body)
		sameDecode[answerRequest](t, body)
		sameDecode[registerViewRequest](t, body)
		sameDecode[containRequest](t, body)
	})
}

// A body over maxBodyBytes is 413 whatever it holds within the limit,
// here an object that ends long before the limit followed by
// whitespace or junk: the body is read whole before it is decoded, so
// the status does not depend on where the JSON value ends (DESIGN.md,
// "Request decoding"). With and without a known Content-Length.
func TestBodyOverLimitAfterValue(t *testing.T) {
	h := New()
	obj := `{"query":"//a","view":"//a"}`
	for _, tail := range []string{" ", "x"} {
		body := obj + strings.Repeat(tail, maxBodyBytes)
		for _, known := range []bool{true, false} {
			var r io.Reader = strings.NewReader(body)
			if !known {
				r = io.MultiReader(r) // hides the length: ContentLength is -1
			}
			req := httptest.NewRequest("POST", "/v1/rewrite", r)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("tail %q, known length %v: status %d, want 413", tail, known, rec.Code)
			}
		}
	}
	// At the limit exactly, the same object with whitespace is served.
	body := obj + strings.Repeat(" ", maxBodyBytes-len(obj))
	req := httptest.NewRequest("POST", "/v1/rewrite", io.MultiReader(strings.NewReader(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("a body of exactly maxBodyBytes: status %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

// A declared Content-Length sizes the body buffer only up to
// bodyPresize: a client that declares the largest body allowed and
// sends a short one does not make the server allocate the declared
// length.
func TestDeclaredLengthBoundsPresize(t *testing.T) {
	h := New()
	body := `{"query":"//a","view":"//a"}`
	least := uint64(1 << 62)
	for i := 0; i < 5; i++ {
		req := httptest.NewRequest("POST", "/v1/rewrite", strings.NewReader(body))
		req.ContentLength = maxBodyBytes
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4*bodyPresize {
		t.Fatalf("a %d-byte body declared as %d bytes allocates %d bytes", len(body), maxBodyBytes, least)
	}
}
