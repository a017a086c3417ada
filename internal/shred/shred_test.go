package shred

import (
	"sort"
	"testing"
	"testing/quick"

	"xrpc/internal/xdm"
)

const sample = `<films>
<film id="f1"><name>The Rock</name><actor>Sean Connery</actor></film>
<film id="f2"><name>Goldfinger</name><actor>Sean Connery</actor></film>
</films>`

func shredSample(t *testing.T) (*Doc, *xdm.Node) {
	t.Helper()
	doc, err := xdm.ParseDocument("f.xml", sample)
	if err != nil {
		t.Fatal(err)
	}
	return Shred(doc), doc
}

func TestPreSizeLevelInvariants(t *testing.T) {
	d, _ := shredSample(t)
	// pre 0 is the document node covering everything
	if d.Kind[0] != xdm.DocumentNode {
		t.Fatalf("pre 0 kind = %v", d.Kind[0])
	}
	if d.Size[0] != d.Len()-1 {
		t.Errorf("root size = %d, want %d", d.Size[0], d.Len()-1)
	}
	for p := 0; p < d.Len(); p++ {
		// region containment: p + size[p] < len
		if p+d.Size[p] >= d.Len()+1 {
			t.Errorf("pre %d region out of bounds", p)
		}
		// children regions nest strictly inside the parent region
		if q := d.Parent(p); p > 0 {
			if q < 0 {
				t.Errorf("pre %d has no parent", p)
				continue
			}
			if !(q < p && p+d.Size[p] <= q+d.Size[q]) {
				t.Errorf("pre %d not inside parent %d region", p, q)
			}
			if !d.isAttrTest(p) && d.Level[p] != d.Level[q]+1 {
				t.Errorf("pre %d level %d, parent level %d", p, d.Level[p], d.Level[q])
			}
		}
	}
}

func (d *Doc) isAttrTest(p int) bool { return d.Kind[p] == xdm.AttributeNode }

// stepOne steps a single context group.
func stepOne(d *Doc, ctx []int, axis xdm.Axis, test xdm.NodeTest) []int {
	_, out := d.Step(make([]int64, len(ctx)), ctx, axis, test)
	return out
}

var allAxes = []xdm.Axis{
	xdm.AxisChild, xdm.AxisDescendant, xdm.AxisDescendantOrSelf,
	xdm.AxisAttribute, xdm.AxisSelf, xdm.AxisParent,
	xdm.AxisAncestor, xdm.AxisAncestorOrSelf,
	xdm.AxisFollowingSibling, xdm.AxisPrecedingSibling,
	xdm.AxisFollowing, xdm.AxisPreceding,
}

func TestStepsMatchTreeWalker(t *testing.T) {
	d, doc := shredSample(t)
	// every axis result from the shredded encoding must equal the tree
	// walker's result
	tests := []xdm.NodeTest{
		{Name: "*"},
		{Name: "film"},
		{Name: "name"},
		{Name: "id"},
		{KindTest: true, AnyKind: true},
		{KindTest: true, Kind: xdm.TextNode},
	}
	ctxNodes := allNodes(doc)
	for _, ctx := range ctxNodes {
		pre, ok := d.Pre(ctx)
		if !ok {
			t.Fatalf("node %v not in shred", ctx)
		}
		for _, axis := range allAxes {
			for _, test := range tests {
				want := xdm.SortDocOrderDedup(xdm.Step(ctx, axis, test))
				gotPres := stepOne(d, []int{pre}, axis, test)
				if len(gotPres) != len(want) {
					t.Errorf("axis %v test %+v at pre %d: %d nodes, want %d",
						axis, test, pre, len(gotPres), len(want))
					continue
				}
				for i, q := range gotPres {
					if d.Node(q) != want[i] {
						t.Errorf("axis %v at pre %d: node %d mismatch", axis, pre, i)
					}
				}
			}
		}
	}
}

// allNodes lists every node of the tree, attributes included, in
// document order.
func allNodes(root *xdm.Node) []*xdm.Node {
	out := []*xdm.Node{root}
	out = append(out, root.Attrs...)
	for _, c := range root.Children {
		out = append(out, allNodes(c)...)
	}
	return out
}

func TestStringValue(t *testing.T) {
	d, doc := shredSample(t)
	film := xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{Name: "film"})[0]
	pre, _ := d.Pre(film)
	if got := d.StringValue(pre); got != "The RockSean Connery" {
		t.Errorf("string value = %q", got)
	}
	name := xdm.Step(film, xdm.AxisChild, xdm.NodeTest{Name: "name"})[0]
	npre, _ := d.Pre(name)
	if got := d.StringValue(npre); got != "The Rock" {
		t.Errorf("name value = %q", got)
	}
}

func TestAttributes(t *testing.T) {
	d, doc := shredSample(t)
	films := xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{Name: "film"})
	pre, _ := d.Pre(films[1])
	attrs := stepOne(d, []int{pre}, xdm.AxisAttribute, xdm.NodeTest{Name: "id"})
	if len(attrs) != 1 {
		t.Fatalf("attrs = %d", len(attrs))
	}
	if v := d.Node(attrs[0]).Value; v != "f2" {
		t.Errorf("@id = %q", v)
	}
	// attribute's parent is the owner element
	if d.Parent(attrs[0]) != pre {
		t.Errorf("attr parent = %d, want %d", d.Parent(attrs[0]), pre)
	}
}

func TestMultiContextStepDedup(t *testing.T) {
	d, doc := shredSample(t)
	films := xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{Name: "film"})
	p1, _ := d.Pre(films[0])
	p2, _ := d.Pre(films[1])
	// descendant-or-self from both film nodes plus the root: text nodes
	// must come out once each, in document order
	rootPre, _ := d.Pre(doc)
	out := stepOne(d, []int{rootPre, p1, p2}, xdm.AxisDescendant, xdm.NodeTest{KindTest: true, Kind: xdm.TextNode})
	wantCount := len(xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{KindTest: true, Kind: xdm.TextNode}))
	if len(out) != wantCount {
		t.Errorf("dedup'd step = %d nodes, want %d", len(out), wantCount)
	}
	for i := 1; i < len(out); i++ {
		if out[i-1] >= out[i] {
			t.Error("step result not in document order")
		}
	}
	// two groups over the same context keep their results apart
	groups, out := d.Step([]int64{1, 2}, []int{p1, p1}, xdm.AxisChild, xdm.NodeTest{Name: "*"})
	if len(out) != 4 || groups[0] != 1 || groups[1] != 1 || groups[2] != 2 || groups[3] != 2 {
		t.Errorf("grouped step = %v %v, want two children per group", groups, out)
	}
}

// randomTree builds a sealed tree from a byte string: each byte adds a
// text node, an element, or an attribute under an earlier element.
func randomTree(shape []uint8) *xdm.Node {
	root := xdm.NewElement("r")
	elems := []*xdm.Node{root}
	for i, b := range shape {
		if i > 40 {
			break
		}
		parent := elems[int(b)%len(elems)]
		switch i % 4 {
		case 0:
			parent.AppendChild(xdm.NewText("t"))
		case 1:
			parent.SetAttr(xdm.NewAttribute([]string{"a", "b"}[b%2], "v"))
		default:
			child := xdm.NewElement([]string{"e", "f"}[b%2])
			parent.AppendChild(child)
			elems = append(elems, child)
		}
	}
	return root.Seal()
}

// Property: for random sealed trees, a node's pre rank is its ordinal
// and the encoding materializes it back.
func TestQuickPreIsOrdinal(t *testing.T) {
	f := func(shape []uint8) bool {
		root := randomTree(shape)
		d := Shred(root)
		nodes := allNodes(root)
		if d.Len() != len(nodes) {
			return false
		}
		for _, n := range nodes {
			pre, ok := d.Pre(n)
			if !ok || pre != n.Ord() || d.Node(pre) != n {
				return false
			}
		}
		_, foreign := d.Pre(xdm.NewElement("x").Seal())
		return !foreign
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: for random small trees and random multi-node contexts
// (context nodes may repeat), the
// whole-context step on every axis equals the document-ordered,
// duplicate-free union of the tree walker's per-node steps, and each
// group's result stays with its group.
func TestQuickShredAgreesWithWalker(t *testing.T) {
	tests := []xdm.NodeTest{
		{KindTest: true, AnyKind: true},
		{Name: "e"},
		{Name: "a"},
		{Name: "*"},
		{KindTest: true, Kind: xdm.TextNode},
	}
	f := func(shape, picks []uint8) bool {
		root := randomTree(shape)
		d := Shred(root)
		nodes := allNodes(root)
		// up to three groups, each a random set of context nodes
		var groups []int64
		var ctx []int
		want := map[int64][]*xdm.Node{}
		for g := int64(0); g < 3; g++ {
			var pres []int
			for i, b := range picks {
				if i%3 == int(g) {
					pres = append(pres, int(b)%len(nodes)) // repeats allowed
				}
			}
			sort.Ints(pres)
			for _, p := range pres {
				groups = append(groups, g)
				ctx = append(ctx, p)
			}
		}
		for _, axis := range allAxes {
			for _, test := range tests {
				for k := range want {
					delete(want, k)
				}
				for i, p := range ctx {
					want[groups[i]] = append(want[groups[i]], xdm.Step(d.Node(p), axis, test)...)
				}
				gotGroups, got := d.Step(groups, ctx, axis, test)
				i := 0
				for g := int64(0); g < 3; g++ {
					for _, n := range xdm.SortDocOrderDedup(want[g]) {
						if i >= len(got) || gotGroups[i] != g || d.Node(got[i]) != n {
							return false
						}
						i++
					}
				}
				if i != len(got) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
