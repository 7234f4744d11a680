package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Parse reads an XML document from r into a Document. Attributes are
// lifted into child elements (the paper blurs the element/attribute
// distinction); processing instructions and comments are ignored.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Tag: t.Name.Local}
			for _, a := range t.Attr {
				attr := n.AddChild(a.Name.Local)
				attr.Text = a.Value
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements")
				}
				root = n
			} else {
				p := stack[len(stack)-1]
				n.Parent = p
				p.Children = append(p.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				s := strings.TrimSpace(string(t))
				if s != "" {
					top := stack[len(stack)-1]
					if top.Text != "" {
						top.Text += " "
					}
					top.Text += s
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unclosed element %q", stack[len(stack)-1].Tag)
	}
	return NewDocument(root), nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// WriteXML serializes the document as indented XML.
func (d *Document) WriteXML(w io.Writer) error {
	if d.Root == nil {
		return fmt.Errorf("xmltree: cannot serialize empty document")
	}
	return writeNode(w, d.Root, 0)
}

func writeNode(w io.Writer, n *Node, depth int) error {
	indent := strings.Repeat("  ", depth)
	if len(n.Children) == 0 {
		if n.Text == "" {
			_, err := fmt.Fprintf(w, "%s<%s/>\n", indent, n.Tag)
			return err
		}
		_, err := fmt.Fprintf(w, "%s<%s>%s</%s>\n", indent, n.Tag, escape(n.Text), n.Tag)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s>", indent, n.Tag); err != nil {
		return err
	}
	if n.Text != "" {
		if _, err := io.WriteString(w, escape(n.Text)); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := writeNode(w, c, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>\n", indent, n.Tag)
	return err
}

// textEscaper escapes node text; a strings.Replacer is safe for
// concurrent use, so one serves every writer.
var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

func escape(s string) string { return textEscaper.Replace(s) }

// XMLString renders the document as an indented XML string.
func (d *Document) XMLString() string {
	var b strings.Builder
	if err := d.WriteXML(&b); err != nil {
		return ""
	}
	return b.String()
}
