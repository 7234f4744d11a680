package server

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"qav/internal/engine"
	"qav/internal/xmltree"
)

// The /v1/answer body is written in one pass straight from the engine's
// answer: no response struct, no reflection, and no per-answer path
// string. The bytes are exactly what encodeJSON renders for the fields
// below (compact, encoding/json's HTML-safe string escaping, omitempty
// on every field but union, programs and answers, answers null when
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
	if len(ans.Answers) == 0 {
		b = append(b, "null"...)
	} else {
		for i, n := range ans.Answers {
			if i == 0 {
				b = append(b, `[{"path":`...)
			} else {
				b = append(b, `},{"path":`...)
			}
			b = appendPath(b, n)
			if n.Text != "" {
				b = append(b, `,"text":`...)
				b = appendString(b, n.Text)
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

// plainByte marks the bytes encoding/json writes as themselves inside a
// string: printable ASCII except the quote, the backslash and the
// HTML-escaped <, > and &.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// appendString appends s as a JSON string; any string that needs
// escaping goes through json.Marshal, which defines the escaping.
func appendString(b []byte, s string) []byte {
	if plain(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// appendPath appends n.Path() as a JSON string, written backwards from
// n up through its ancestors into the space their tags need.
func appendPath(b []byte, n *xmltree.Node) []byte {
	size := 2 // the quotes
	for x := n; x != nil; x = x.Parent {
		if !plain(x.Tag) {
			return appendString(b, n.Path())
		}
		size += 1 + len(x.Tag)
	}
	b = slices.Grow(b, size)
	i := len(b) + size
	b = b[:i]
	i--
	b[i] = '"'
	for x := n; x != nil; x = x.Parent {
		i -= len(x.Tag)
		copy(b[i:], x.Tag)
		i--
		b[i] = '/'
	}
	b[i-1] = '"'
	return b
}
