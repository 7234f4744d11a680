package router

import (
	"encoding/json"
	"strings"
	"testing"
)

// reflectiveAffinityKey is affinityKey as it was when it decoded the
// body with json.Unmarshal into a probe struct, kept as the oracle of
// the scanner that replaced it.
func reflectiveAffinityKey(path string, body []byte, canon func(string) string) string {
	if len(body) == 0 {
		return path
	}
	var probe struct {
		Query     string `json:"query"`
		View      string `json:"view"`
		ViewName  string `json:"viewName"`
		Schema    string `json:"schema"`
		Recursive bool   `json:"recursive"`
		P         string `json:"p"`
		Q         string `json:"q"`
		Items     []struct {
			Query  string `json:"query"`
			View   string `json:"view"`
			Schema string `json:"schema"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return string(body)
	}
	if len(probe.Items) > 0 {
		return canon(probe.Items[0].Query) + "\x00" +
			canon(probe.Items[0].View) + "\x00" + probe.Items[0].Schema
	}
	if probe.P != "" || probe.Q != "" {
		return canon(probe.P) + "\x00" + canon(probe.Q) + "\x00" + probe.Schema
	}
	view := probe.View
	if view == "" {
		view = probe.ViewName
	}
	if probe.Query == "" && view == "" {
		return string(body)
	}
	key := canon(probe.Query) + "\x00" + canon(view) + "\x00" + probe.Schema
	if probe.Recursive {
		key += "\x00r"
	}
	return key
}

// bracket is a canon that keeps every text apart and shows where each
// one went, so a key compares the decoded strings themselves.
func bracket(s string) string { return "<" + s + ">" }

// keySeeds are hostile bodies for FuzzAffinityKey: escapes, surrogate
// pairs, lone surrogates, invalid UTF-8, case-folded, duplicate and
// escaped member names, nulls, unknown members with nested values,
// trailing data, and top-level values other than an object.
var keySeeds = []string{
	`{"query":"//a[b][c]","view":"//a"}`,
	`{"query":"//a","viewName":"v"}`,
	`{"query":"//a","view":"//a","schema":"a -> b","recursive":true}`,
	`{"p":"//a/b","q":"//a//b","schema":"s"}`,
	`{"items":[{"query":"//a","view":"//a","recursive":true},{"query":"//b"}]}`,
	`{"items":[{"query":"a","view":"b"}],"items":[{"schema":"s"}]}`,
	`{"items":[{"query":"a"},{"view":"b"}],"items":[null,{"query":1}]}`,
	`{"items":[null]}`,
	`{"items":[],"query":"q"}`,
	`{"items":null,"items":[{"view":"v"}]}`,
	`{"items":[{"query":"a"}],"items":[],"items":[{"view":"v"}]}`,
	`{"items":{}}`,
	`{"query":"//a\t\"\\\/\b\f\n\r","view":"😀"}`,
	`{"query":"\ud800","view":"\udc00\ud800x"}`,
	`{"query":"😀","view":"\ud83d😀"}`,
	"{\"query\":\"\xff\xfe\xed\xa0\x80\",\"view\":\"\xe2\x82\xac\"}",
	`{"QUERY":"a","View":"b","ſchema":"c","recurſive":true}`,
	`{"query":"a","view":"b"}`,
	`{"query":"a","query":"b","query":null}`,
	`{"query":null,"view":null,"recursive":null}`,
	`{"document":{"x":[1,-2.5e3,{"y":null,"z":[true,false]}]},"query":"a","view":"b"}`,
	`{"name":"src","view":"//a","document":"<a/>"}`,
	`{"query":"a","view":"b"}{"query":"c"}`,
	`{"query":"a","view":"b"} x`,
	`{"query":"a","view":"b"}` + " \t\r\n",
	`{"query":1,"view":"b"}`,
	`{"recursive":"true","query":"a"}`,
	`{"bogus":01,"query":"a"}`,
	`{"bogus":[1,],"query":"a"}`,
	`{"bogus":"\x","query":"a"}`,
	`null`,
	`[{"query":"a"}]`,
	`42`,
	`"query"`,
	`   `,
	`junk`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"query":"a"}`,
	`{"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `,"query":"a"}`,
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"query":"a"}`,
}

// FuzzAffinityKey holds affinityKey to the reflective probe it
// replaced: the same key for every body.
func FuzzAffinityKey(f *testing.F) {
	for _, s := range keySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want := reflectiveAffinityKey("/v1/rewrite", body, bracket)
		if got := affinityKey("/v1/rewrite", body, bracket); got != want {
			t.Fatalf("body %q: key %q, want %q", body, got, want)
		}
	})
}
