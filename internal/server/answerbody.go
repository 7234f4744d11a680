package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"qav/internal/engine"
	"qav/internal/plan"
)

// The /v1/answer body is written in one pass straight from the engine's
// answer positions: no response struct, no reflection, and no
// per-answer path string. An answer's path comes from the forest's
// interned path column, rendered as JSON once per distinct path and
// copied for every later answer on it; its text comes from the
// forest's text column, whose JSONPlain bit was decided when the
// forest was indexed, so no answer's node or text is inspected here.
// The bytes are exactly what encodeJSON renders for the fields below
// (compact, encoding/json's HTML-safe string escaping, omitempty on
// every field but union, programs and answers, answers null when
// empty, one trailing newline):
//
//	union              string
//	viewNodes          int, omitempty: direct mode
//	viewTrees          int, omitempty: stored-view mode
//	answers            [{path, text (omitempty)}]
//	directAnswerCount  int, omitempty: direct mode
//	plan               {programs}, omitempty
//	partial            bool, omitempty
//	partialReason      string, omitempty

// answerBufs recycles encoding buffers; bodies above maxPooledAnswer are
// left to the collector rather than pinned in the pool.
var answerBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledAnswer = 1 << 20

// writeAnswer writes the 200 /v1/answer body of ans.
func writeAnswer(w http.ResponseWriter, ans *engine.Answer) {
	bp := answerBufs.Get().(*[]byte)
	body := appendAnswer((*bp)[:0], ans)
	writeBody(w, http.StatusOK, body)
	if cap(body) <= maxPooledAnswer {
		*bp = body
		answerBufs.Put(bp)
	}
}

// appendAnswer appends the /v1/answer body of ans to b.
func appendAnswer(b []byte, ans *engine.Answer) []byte {
	b = append(b, `{"union":`...)
	b = appendString(b, ans.Result.Union.String())
	b = appendIntField(b, "viewNodes", len(ans.ViewNodes))
	b = appendIntField(b, "viewTrees", ans.Trees)
	b = append(b, `,"answers":`...)
	var pos []int32
	if ans.Exec != nil {
		pos = ans.Exec.Matches
	}
	if len(pos) == 0 {
		b = append(b, "null"...)
	} else {
		f := ans.Exec.Forest
		var spans pathSpans
		for i, p := range pos {
			if i == 0 {
				b = append(b, `[{"path":`...)
			} else {
				b = append(b, `},{"path":`...)
			}
			b = spans.appendPath(b, f, f.PathID(p))
			if text, plain := f.Text(p); len(text) > 0 {
				b = append(b, `,"text":`...)
				b = appendQuoted(b, text, plain)
			}
		}
		b = append(b, "}]"...)
	}
	b = appendIntField(b, "directAnswerCount", len(ans.Direct))
	if ans.Plan != nil {
		b = append(b, `,"plan":{"programs":`...)
		b = strconv.AppendInt(b, int64(ans.Plan.Programs()), 10)
		b = append(b, '}')
	}
	if ans.Result.Partial {
		b = append(b, `,"partial":true`...)
	}
	if r := string(ans.Result.PartialReason); r != "" {
		b = append(b, `,"partialReason":`...)
		b = appendString(b, r)
	}
	return append(b, "}\n"...)
}

// appendIntField appends an omitempty int field.
func appendIntField(b []byte, name string, v int) []byte {
	if v == 0 {
		return b
	}
	b = append(b, `,"`...)
	b = append(b, name...)
	b = append(b, `":`...)
	return strconv.AppendInt(b, int64(v), 10)
}

// appendString appends s as a JSON string.
func appendString(b []byte, s string) []byte {
	return appendQuoted(b, s, plan.JSONPlain(s))
}

// appendQuoted appends s as a JSON string, where plain is
// plan.JSONPlain(s): a plain string is quoted as it stands, and any
// other goes through json.Marshal, which defines the escaping.
func appendQuoted[T string | []byte](b []byte, s T, plain bool) []byte {
	if plain {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	q, _ := json.Marshal(string(s)) // a string always marshals
	return append(b, q...)
}

// pathSpans remembers where each path ID's JSON string was first
// written in one body, so that every later answer on the path copies
// those bytes. IDs below len(low) are looked up in place; the rest, met
// only in forests of many distinct paths, in a map made on first need.
type pathSpans struct {
	low  [64]span
	high map[int32]span
}

// span is a byte range of the body; the zero span marks an ID not yet
// written, since a JSON string is never empty.
type span struct{ from, to int }

// appendPath appends the JSON string of path id of f.
func (ps *pathSpans) appendPath(b []byte, f *plan.Forest, id int32) []byte {
	var sp span
	if int(id) < len(ps.low) {
		sp = ps.low[id]
	} else {
		sp = ps.high[id]
	}
	if sp.to != 0 {
		return append(b, b[sp.from:sp.to]...)
	}
	sp.from = len(b)
	b = appendPathString(b, f, id)
	sp.to = len(b)
	if int(id) < len(ps.low) {
		ps.low[id] = sp
	} else {
		if ps.high == nil {
			ps.high = make(map[int32]span)
		}
		ps.high[id] = sp
	}
	return b
}

// appendPathString renders path id of f as a JSON string: the path is
// written in place and quoted, unless it needs escaping, in which case
// json.Marshal rewrites it.
func appendPathString(b []byte, f *plan.Forest, id int32) []byte {
	start := len(b)
	b = f.AppendPath(append(b, '"'), id)
	if plan.JSONPlain(b[start+1:]) {
		return append(b, '"')
	}
	return appendString(b[:start], string(b[start+1:]))
}
