package xdm

import (
	"strings"

	"xrpc/internal/xmlscan"
)

// ParseDocument parses XML text into a sealed document node with the
// given URI. Namespace prefixes are kept verbatim in node names (the
// reproduction treats QNames lexically, which suffices for the paper's
// workloads and the XRPC envelope). The tokenizer runs in document
// mode, so a text parses exactly when encoding/xml's RawToken accepted
// it; end-tag names, as there, are not matched against start tags.
func ParseDocument(uri, text string) (*Node, error) {
	doc := NewDocument(uri)
	if err := parseInto(doc, text); err != nil {
		return nil, err
	}
	return doc, nil
}

// ParseFragment parses XML text that may lack a single root and returns
// the parsed top-level nodes (each sealed as its own fragment tree).
func ParseFragment(text string) ([]*Node, error) {
	doc := NewDocument("")
	if err := parseInto(doc, text); err != nil {
		return nil, err
	}
	for _, c := range doc.Children {
		c.Parent, c.tree = nil, nil // a fresh tree of its own
		c.Seal()
	}
	return doc.Children, nil
}

// parseInto builds the content of text under doc and seals the tree:
// nodes are created in document order, so each gets its tree and
// preorder ordinal as it is made, and Seal's walk is not needed. Child
// lists are collected on one shared stack and copied out, exactly
// sized, when their parent closes.
func parseInto(doc *Node, text string) error {
	var sc xmlscan.Scanner
	sc.ResetDocument([]byte(text))
	ord := 1 // the document node is 0
	newNode := func(kind NodeKind, name, value string, parent *Node) *Node {
		n := &Node{Kind: kind, Name: name, Value: value, Parent: parent, tree: doc.tree, ord: ord}
		ord++
		return n
	}
	var (
		open  = []*Node{doc} // open elements, doc at the bottom
		first = []int{0}     // where each open node's children start in kids
		kids  []*Node
		run   xmlscan.TextRun
	)
	for {
		tok, err := sc.Next()
		if err != nil {
			return err
		}
		cur := open[len(open)-1]
		if tok == xmlscan.Text {
			v, err := sc.TextValue()
			if err != nil {
				return err
			}
			if cur == doc && strings.TrimSpace(v) == "" {
				continue // whitespace outside the root
			}
			run.Add(v)
			continue
		}
		if tok == xmlscan.PI && sc.Name == "xml" {
			continue // XML declaration
		}
		if run.Pending() {
			kids = append(kids, newNode(TextNode, "", run.Take(), cur))
		}
		switch tok {
		case xmlscan.EOF:
			doc.Children = closeChildren(kids, 0)
			return nil
		case xmlscan.Start:
			el := newNode(ElementNode, sc.Name, "", cur)
			if len(sc.Attrs) > 0 {
				el.Attrs = make([]*Node, len(sc.Attrs))
				for i, a := range sc.Attrs {
					el.Attrs[i] = newNode(AttributeNode, a.Name, a.Value, el)
				}
			}
			kids = append(kids, el)
			if !sc.SelfClose {
				open = append(open, el)
				first = append(first, len(kids))
			}
		case xmlscan.End:
			from := first[len(first)-1]
			cur.Children = closeChildren(kids, from)
			kids = kids[:from]
			open, first = open[:len(open)-1], first[:len(first)-1]
		case xmlscan.Comment:
			v, err := sc.TextValue()
			if err != nil {
				return err
			}
			kids = append(kids, newNode(CommentNode, "", v, cur))
		case xmlscan.PI:
			v, err := sc.TextValue()
			if err != nil {
				return err
			}
			kids = append(kids, newNode(PINode, sc.Name, v, cur))
		}
	}
}

// closeChildren copies the children collected from kids[from:] into an
// exactly sized slice (nil when there are none).
func closeChildren(kids []*Node, from int) []*Node {
	if len(kids) == from {
		return nil
	}
	c := make([]*Node, len(kids)-from)
	copy(c, kids[from:])
	return c
}
