package reqjson

import (
	"strings"
	"testing"
)

type pair struct{ a, b string }

func (p *pair) member(d *Decoder) bool {
	switch {
	case d.Key("a"):
		p.a = d.String(p.a)
	case d.Key("b"):
		p.b = d.String(p.b)
	default:
		return false
	}
	return true
}

// Decoded strings never alias the body: a caller may reuse the buffer,
// and the strings (engine cache keys, say) keep their values. Plain,
// escaped and non-ASCII strings take different paths; all are copies.
func TestStringsDoNotAliasBody(t *testing.T) {
	for _, body := range []string{
		`{"a":"plain","b":"ascii"}`,
		`{"a":"tab\there","b":"é"}`,
		"{\"a\":\"é\",\"b\":\"\xff\"}",
	} {
		buf := []byte(body)
		var p pair
		if err := Decode(buf, p.member); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		a, b := strings.Clone(p.a), strings.Clone(p.b)
		for i := range buf {
			buf[i] = 'x'
		}
		if p.a != a || p.b != b {
			t.Errorf("%s: decoded strings changed with the body: %q %q, want %q %q", body, p.a, p.b, a, b)
		}
	}
}

// Unknown members are an error naming them in Decode and skipped, with
// whatever they hold, in Lenient.
func TestUnknownMembers(t *testing.T) {
	body := []byte(`{"a":"1","x":{"y":[true,null,-1.5e3,"s"]},"b":"2"}`)
	var p pair
	if err := Decode(body, p.member); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("Decode: error %v, want one naming \"x\"", err)
	}
	p = pair{}
	if err := Lenient(body, p.member); err != nil || p != (pair{"1", "2"}) {
		t.Errorf("Lenient: %+v, %v; want {1 2}, nil", p, err)
	}
}

// Nesting deeper than encoding/json's limit is a syntax error, counted
// from the top-level object.
func TestMaxDepth(t *testing.T) {
	nested := func(n int) []byte {
		return []byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
	}
	var p pair
	if err := Lenient(nested(maxDepth-1), p.member); err != nil {
		t.Errorf("depth %d: %v", maxDepth, err)
	}
	if err := Lenient(nested(maxDepth), p.member); err == nil {
		t.Errorf("depth %d accepted", maxDepth+1)
	}
}
