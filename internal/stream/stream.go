// Package stream evaluates tree pattern queries over XML byte streams
// without materializing the document: a single SAX-style pass computes
// subtree matches bottom-up on element close and confirms answer
// candidates against their (still open) ancestor chains as those close.
// Memory is O(depth · |Q| + pending answers), independent of document
// size — the streaming-evaluation substrate for documents too large to
// load.
//
// Attribute handling matches xmltree.Parse (attributes become child
// elements in document order), so answer preorder indexes agree exactly
// with the in-memory evaluator's node indexes.
package stream

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"qav/internal/tpq"
)

// Answer identifies one answer element of the streamed document.
type Answer struct {
	// Index is the element's preorder position (equal to the Index the
	// in-memory parser would assign).
	Index int
	// Path is the root-to-answer tag path, e.g. /PharmaLab/Trials/Trial.
	Path string
	// Text is the element's direct character data, trimmed.
	Text string
}

// Evaluate runs the pattern over the XML stream and returns the
// answers in document (preorder) order. The stream can be unbounded
// (that is the point of this package), so the context is polled every
// 1024 tokens and a cancelled ctx aborts the pass with its error.
func Evaluate(ctx context.Context, r io.Reader, p *tpq.Pattern) ([]Answer, error) {
	ev, err := newEvaluator(p)
	if err != nil {
		return nil, err
	}
	dec := xml.NewDecoder(r)
	for tokens := 0; ; tokens++ {
		if tokens&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			ev.open(t.Name.Local)
			for _, a := range t.Attr {
				// Attributes are leaf child elements, like xmltree.Parse.
				ev.open(a.Name.Local)
				ev.text(a.Value)
				if err := ev.close(); err != nil {
					return nil, err
				}
			}
		case xml.EndElement:
			if err := ev.close(); err != nil {
				return nil, err
			}
		case xml.CharData:
			ev.text(string(t))
		}
	}
	if len(ev.stack) != 0 {
		return nil, fmt.Errorf("stream: unterminated document")
	}
	if !ev.sawRoot {
		return nil, fmt.Errorf("stream: empty document")
	}
	sort.Slice(ev.answers, func(i, j int) bool { return ev.answers[i].Index < ev.answers[j].Index })
	return ev.answers, nil
}

// pending is an unconfirmed answer: some ancestor must match pattern
// path node pathIdx; direct requires the IMMEDIATE parent of the frame
// that raised it.
type pending struct {
	answer  Answer
	pathIdx int
	direct  bool
}

type frame struct {
	tag   string
	index int
	depth int
	text  strings.Builder
	// pcHit[qi]: some closed direct child matched pattern subtree qi.
	// adHit[qi]: some closed proper descendant matched subtree qi.
	pcHit, adHit []bool
	pend         []pending
}

type evaluator struct {
	p       *tpq.Pattern
	qnodes  []*tpq.Node
	qindex  map[*tpq.Node]int
	path    []*tpq.Node // distinguished path
	pathIdx map[*tpq.Node]int

	stack     []*frame
	nextIndex int
	sawRoot   bool
	confirmed map[int]bool
	answers   []Answer
}

func newEvaluator(p *tpq.Pattern) (*evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ev := &evaluator{
		p:         p,
		qnodes:    p.Nodes(),
		qindex:    make(map[*tpq.Node]int),
		path:      p.DistinguishedPath(),
		pathIdx:   make(map[*tpq.Node]int),
		confirmed: make(map[int]bool),
	}
	for i, n := range ev.qnodes {
		ev.qindex[n] = i
	}
	for i, n := range ev.path {
		ev.pathIdx[n] = i
	}
	return ev, nil
}

func (ev *evaluator) open(tag string) {
	ev.sawRoot = ev.sawRoot || len(ev.stack) == 0
	f := &frame{
		tag:   tag,
		index: ev.nextIndex,
		depth: len(ev.stack),
		pcHit: make([]bool, len(ev.qnodes)),
		adHit: make([]bool, len(ev.qnodes)),
	}
	ev.nextIndex++
	ev.stack = append(ev.stack, f)
}

func (ev *evaluator) text(s string) {
	if len(ev.stack) == 0 {
		return
	}
	top := ev.stack[len(ev.stack)-1]
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return
	}
	if top.text.Len() > 0 {
		top.text.WriteByte(' ')
	}
	top.text.WriteString(trimmed)
}

func (ev *evaluator) close() error {
	if len(ev.stack) == 0 {
		return fmt.Errorf("stream: unbalanced end element")
	}
	f := ev.stack[len(ev.stack)-1]
	ev.stack = ev.stack[:len(ev.stack)-1]

	// Bottom-up subtree satisfaction for f.
	sat := make([]bool, len(ev.qnodes))
	for qi := len(ev.qnodes) - 1; qi >= 0; qi-- {
		q := ev.qnodes[qi]
		if q.Tag != tpq.Wildcard && q.Tag != f.tag {
			continue
		}
		ok := true
		for _, c := range q.Children {
			ci := ev.qindex[c]
			var hit bool
			if c.Axis == tpq.Child {
				hit = f.pcHit[ci]
			} else {
				hit = f.adHit[ci]
			}
			if !hit {
				ok = false
				break
			}
		}
		sat[qi] = ok
	}

	// New answer candidate?
	out := ev.qindex[ev.p.Output]
	if sat[out] {
		ans := Answer{Index: f.index, Path: ev.currentPath(f.tag), Text: f.text.String()}
		if len(ev.path) == 1 {
			ev.confirm(ans, f.depth)
		} else {
			ev.raise(pending{
				answer:  ans,
				pathIdx: len(ev.path) - 2,
				direct:  ev.path[len(ev.path)-1].Axis == tpq.Child,
			})
		}
	}

	// Process pending items raised by f's children against f.
	for _, item := range f.pend {
		qi := ev.qindex[ev.path[item.pathIdx]]
		if sat[qi] {
			if item.pathIdx == 0 {
				ev.confirm(item.answer, f.depth)
			} else {
				ev.raise(pending{
					answer:  item.answer,
					pathIdx: item.pathIdx - 1,
					direct:  ev.path[item.pathIdx].Axis == tpq.Child,
				})
			}
		}
		// An ad-step may also skip f and match higher up; a pc-step
		// dies here if f did not match.
		if !item.direct {
			ev.raise(item)
		}
	}

	// Propagate f's results into its parent.
	if len(ev.stack) > 0 {
		parent := ev.stack[len(ev.stack)-1]
		for qi, ok := range sat {
			if ok {
				parent.pcHit[qi] = true
				parent.adHit[qi] = true
			}
			if f.adHit[qi] {
				parent.adHit[qi] = true
			}
		}
	}
	return nil
}

// raise defers a pending item to the current top of stack; if the stack
// is empty (the candidate needed an ancestor above the root) the item
// dies.
func (ev *evaluator) raise(item pending) {
	if len(ev.stack) == 0 {
		return
	}
	top := ev.stack[len(ev.stack)-1]
	top.pend = append(top.pend, item)
}

// confirm records an answer whose whole distinguished path matched,
// subject to the query root's axis ('/' requires the match at the
// document root).
func (ev *evaluator) confirm(ans Answer, rootMatchDepth int) {
	if ev.p.Root.Axis == tpq.Child && rootMatchDepth != 0 {
		return
	}
	if ev.confirmed[ans.Index] {
		return
	}
	ev.confirmed[ans.Index] = true
	ev.answers = append(ev.answers, ans)
}

// currentPath renders the root-to-answer tag path from the open stack
// plus the closing tag.
func (ev *evaluator) currentPath(tag string) string {
	var b strings.Builder
	for _, f := range ev.stack {
		b.WriteByte('/')
		b.WriteString(f.tag)
	}
	b.WriteByte('/')
	b.WriteString(tag)
	return b.String()
}
