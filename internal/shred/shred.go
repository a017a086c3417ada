// Package shred implements the pre/size/level document encoding that
// MonetDB/XQuery uses to store shredded XML (§3): every node gets a
// preorder rank (pre), the count of its descendants (size), and its
// depth (level). XPath axes become range scans on this encoding — the
// "staircase" evaluation that makes the relational XQuery engine bulk:
//
//	descendants(p)  = { q | p < q ≤ p+size[p] }
//	children(p)     = descendants one level down, hopped over by size
//	attributes(p)   = the attribute rows directly after p
//
// Step evaluates an axis for a whole loop-lifted context at once: one
// pass over the (group, pre) pairs of every iteration, where the
// descendant axes skip context nodes inside an earlier context node's
// region (Grust et al., "Staircase Join", VLDB 2003).
//
// The encoding keeps no pointer map. xdm.Node.Seal numbers a tree in the
// same preorder, attributes directly after their owner, so a node's pre
// rank is its ordinal minus the root's; the Nodes array maps back to
// materialize results.
package shred

import (
	"sort"

	"xrpc/internal/xdm"
)

// Doc is a shredded document (or fragment).
type Doc struct {
	// parallel arrays indexed by pre rank; attributes are rows of their
	// own (Size 0, Level owner level+1) directly after their owner
	Kind  []xdm.NodeKind
	Size  []int
	Level []int
	Nodes []*xdm.Node

	base int // ordinal of the root
}

// Shred encodes the sealed tree rooted at root.
func Shred(root *xdm.Node) *Doc {
	n := count(root)
	d := &Doc{
		Kind:  make([]xdm.NodeKind, 0, n),
		Size:  make([]int, 0, n),
		Level: make([]int, 0, n),
		Nodes: make([]*xdm.Node, 0, n),
		base:  root.Ord(),
	}
	d.walk(root, 0)
	return d
}

// count returns the number of nodes in the tree, attributes included.
func count(n *xdm.Node) int {
	c := 1 + len(n.Attrs)
	for _, ch := range n.Children {
		c += count(ch)
	}
	return c
}

// walk assigns pre ranks in document order; returns the subtree size
// (number of descendants including attributes).
func (d *Doc) walk(n *xdm.Node, level int) int {
	pre := len(d.Kind)
	d.Kind = append(d.Kind, n.Kind)
	d.Size = append(d.Size, 0) // patched below
	d.Level = append(d.Level, level)
	d.Nodes = append(d.Nodes, n)
	for _, a := range n.Attrs {
		d.Kind = append(d.Kind, xdm.AttributeNode)
		d.Size = append(d.Size, 0)
		d.Level = append(d.Level, level+1)
		d.Nodes = append(d.Nodes, a)
	}
	size := len(n.Attrs)
	for _, c := range n.Children {
		size += 1 + d.walk(c, level+1)
	}
	d.Size[pre] = size
	return size
}

// Len returns the number of encoded nodes.
func (d *Doc) Len() int { return len(d.Kind) }

// Pre returns the pre rank of a node of this doc: its ordinal relative
// to the root's. A node from another tree, or from a tree changed since
// it was sealed, is reported as absent.
func (d *Doc) Pre(n *xdm.Node) (int, bool) {
	p := n.Ord() - d.base
	if p < 0 || p >= len(d.Nodes) || d.Nodes[p] != n {
		return 0, false
	}
	return p, true
}

// Node materializes the node at a pre rank.
func (d *Doc) Node(pre int) *xdm.Node { return d.Nodes[pre] }

// isAttr reports whether pre is an attribute row.
func (d *Doc) isAttr(pre int) bool { return d.Kind[pre] == xdm.AttributeNode }

// Parent returns the parent pre rank of p (-1 at the root).
func (d *Doc) Parent(p int) int {
	if par := d.Nodes[p].Parent; par != nil {
		if q, ok := d.Pre(par); ok {
			return q
		}
	}
	return -1
}

// Step evaluates one axis step for many context groups in one pass.
// groups and ctx are parallel: (group, context pre) pairs sorted by
// group, then pre. The result pairs are sorted the same way: for each
// group, the document-ordered, duplicate-free union of the step from
// each of the group's context nodes.
func (d *Doc) Step(groups []int64, ctx []int, axis xdm.Axis, test xdm.NodeTest) ([]int64, []int) {
	var outGroups []int64
	var out []int
	for lo := 0; lo < len(ctx); {
		hi := lo + 1
		for hi < len(ctx) && groups[hi] == groups[lo] {
			hi++
		}
		start := len(out)
		out = d.stepGroup(ctx[lo:hi], axis, test, out)
		// nested context nodes (child, parent) or the tree-walker axes
		// can emit out of order: restore document order and dedup
		if seg := out[start:]; !increasing(seg) {
			sort.Ints(seg)
			out = out[:start+dedupSorted(seg)]
		}
		for range out[start:] {
			outGroups = append(outGroups, groups[lo])
		}
		lo = hi
	}
	return outGroups, out
}

// stepGroup appends the step results of one group's ascending context
// pre ranks to out.
func (d *Doc) stepGroup(ctx []int, axis xdm.Axis, test xdm.NodeTest, out []int) []int {
	switch axis {
	case xdm.AxisChild:
		for _, p := range ctx {
			end := p + d.Size[p]
			q := p + 1
			for q <= end && d.isAttr(q) {
				q++
			}
			for ; q <= end; q += d.Size[q] + 1 { // hop over each child's subtree
				if d.matches(q, test, axis) {
					out = append(out, q)
				}
			}
		}
	case xdm.AxisDescendant, xdm.AxisDescendantOrSelf:
		end := -1
		for _, p := range ctx {
			self := axis == xdm.AxisDescendantOrSelf && d.matches(p, test, axis)
			if d.isAttr(p) || p <= end {
				// an attribute has no descendants, and a node inside the
				// previous context node's region was scanned with it:
				// the staircase prunes it (an attribute self is not)
				if self && d.isAttr(p) {
					out = append(out, p)
				}
				continue
			}
			if self {
				out = append(out, p)
			}
			end = p + d.Size[p]
			for q := p + 1; q <= end; q++ {
				if !d.isAttr(q) && d.matches(q, test, axis) {
					out = append(out, q)
				}
			}
		}
	case xdm.AxisAttribute:
		for _, p := range ctx {
			if d.isAttr(p) {
				continue
			}
			for q := p + 1; q < len(d.Kind) && d.isAttr(q); q++ {
				if d.matches(q, test, axis) {
					out = append(out, q)
				}
			}
		}
	case xdm.AxisSelf:
		for _, p := range ctx {
			if d.matches(p, test, axis) {
				out = append(out, p)
			}
		}
	case xdm.AxisParent:
		for _, p := range ctx {
			if q := d.Parent(p); q >= 0 && d.matches(q, test, axis) {
				out = append(out, q)
			}
		}
	default:
		// the remaining axes fall back to the tree walker
		for _, p := range ctx {
			for _, n := range xdm.Step(d.Nodes[p], axis, test) {
				if q, ok := d.Pre(n); ok {
					out = append(out, q)
				}
			}
		}
	}
	return out
}

func increasing(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return false
		}
	}
	return true
}

// dedupSorted removes adjacent duplicates in place and returns the new
// length.
func dedupSorted(xs []int) int {
	n := 0
	for i, x := range xs {
		if i == 0 || x != xs[n-1] {
			xs[n] = x
			n++
		}
	}
	return n
}

func (d *Doc) matches(q int, test xdm.NodeTest, axis xdm.Axis) bool {
	return test.Matches(d.Nodes[q], axis)
}

// StringValue returns the node string value at pre (concatenated text
// for elements/documents via the region scan).
func (d *Doc) StringValue(pre int) string {
	switch d.Kind[pre] {
	case xdm.ElementNode, xdm.DocumentNode:
		var out []byte
		end := pre + d.Size[pre]
		for q := pre + 1; q <= end; q++ {
			if d.Kind[q] == xdm.TextNode {
				out = append(out, d.Nodes[q].Value...)
			}
		}
		return string(out)
	default:
		return d.Nodes[pre].Value
	}
}
