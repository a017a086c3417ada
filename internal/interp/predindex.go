package interp

import (
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// Predicate hash indexing: §4 of the paper observes that when the
// wrapper turns a Bulk RPC of a selection function into a query that
// iterates over all calls, "Saxon is able to detect the join condition
// and builds a hash-table such that performance remains linear". This
// file implements the same optimization for the tree-walking engine:
// a predicate of the shape
//
//	candidates[ <pure relative path> = <context-free expression> ]
//
// evaluated repeatedly over the same candidate node list (e.g.
// //person[@id=$pid] probed once per call) builds a hash index over the
// path's string values once, then answers each probe by lookup. The
// FLWOR form of the same join is in join.go.

// evalMemo holds per-evaluation memoized state, shared by all child
// contexts of one Eval/CallFunction.
type evalMemo struct {
	preds map[predKey][]*predIndex
	// steps memoizes axis-step results per (step AST, context node):
	// trees are immutable during one query evaluation, so a step from
	// the same context node always yields the same nodes. This is what
	// keeps the wrapper's generated bulk query linear — //person is
	// scanned once, not once per call. Both map levels are keyed by
	// pointers, which hash cheaply.
	steps map[*xq.Step]map[*xdm.Node][]*xdm.Node
	// joins caches, per FLWOR, the value join it ends in when that join
	// may run hashed (nil: it may not).
	joins map[*xq.FLWOR]*xq.ValueJoin
	// counts accumulates the hash paths taken.
	counts *HashCounts
}

// memoStep is xdm.Step with memoization keyed by the step's AST node.
func (ctx *dynCtx) memoStep(st *xq.Step, n *xdm.Node) []*xdm.Node {
	if ctx.memo == nil {
		return xdm.Step(n, st.Axis, st.Test)
	}
	if ctx.memo.steps == nil {
		ctx.memo.steps = map[*xq.Step]map[*xdm.Node][]*xdm.Node{}
	}
	inner, ok := ctx.memo.steps[st]
	if !ok {
		inner = map[*xdm.Node][]*xdm.Node{}
		ctx.memo.steps[st] = inner
	}
	if out, hit := inner[n]; hit {
		return out
	}
	out := xdm.Step(n, st.Axis, st.Test)
	inner[n] = out
	return out
}

// predKey narrows the memo to the indexes that may fit a candidate
// sequence; sameItems decides.
type predKey struct {
	pred  xq.Expr  // predicate AST identity
	first xdm.Item // first candidate (node identity)
	n     int
}

type predIndex struct {
	cands   xdm.Sequence // the candidate sequence indexed
	ok      bool         // false: pattern unusable for this candidate set
	byValue map[string][]int
}

// tryIndexedPredicate filters seq by pred using a hash index when the
// predicate has an indexable shape; it returns (result, true) on
// success, or (nil, false) to fall back to row-at-a-time evaluation.
func (ctx *dynCtx) tryIndexedPredicate(seq xdm.Sequence, pred xq.Expr) (xdm.Sequence, bool) {
	if ctx.memo == nil || len(seq) < 16 || ctx.c.engine.NestedLoops {
		return nil, false
	}
	if _, isNode := seq[0].(*xdm.Node); !isNode {
		return nil, false
	}
	cmp, isCmp := pred.(*xq.Comparison)
	if !isCmp || !cmp.General || cmp.Op != "=" {
		return nil, false
	}
	// identify the pure-path side (probed key) and the context-free side
	var keyPath *xq.Path
	var probe xq.Expr
	if p, isPath := cmp.L.(*xq.Path); isPath && purePath(p) && contextFree(cmp.R) {
		keyPath, probe = p, cmp.R
	} else if p, isPath := cmp.R.(*xq.Path); isPath && purePath(p) && contextFree(cmp.L) {
		keyPath, probe = p, cmp.L
	} else {
		return nil, false
	}
	idx := ctx.predIndexFor(seq, pred, keyPath)
	if !idx.ok {
		return nil, false
	}
	// evaluate the probe side once (it does not depend on the context
	// item)
	pv, err := ctx.eval(probe)
	if err != nil {
		return nil, false
	}
	pv = xdm.Atomize(pv)
	// only string-family probes match the string-keyed index safely
	selected := map[int]bool{}
	for _, it := range pv {
		switch it.(type) {
		case xdm.String, xdm.Untyped:
		default:
			return nil, false
		}
		for _, i := range idx.byValue[it.StringValue()] {
			selected[i] = true
		}
	}
	var out xdm.Sequence
	for i, it := range seq {
		if selected[i] {
			out = append(out, it)
		}
	}
	ctx.memo.counts.PredIndex++
	return out, true
}

// predIndexFor returns the index of pred's key path over seq, building
// it on first use. An index is reused only for the very candidate
// sequence it was built for: the same items in the same order.
func (ctx *dynCtx) predIndexFor(seq xdm.Sequence, pred xq.Expr, keyPath *xq.Path) *predIndex {
	key := predKey{pred: pred, first: seq[0], n: len(seq)}
	for _, idx := range ctx.memo.preds[key] {
		if sameItems(idx.cands, seq) {
			return idx
		}
	}
	idx := ctx.buildPredIndex(seq, keyPath)
	if ctx.memo.preds == nil {
		ctx.memo.preds = map[predKey][]*predIndex{}
	}
	ctx.memo.preds[key] = append(ctx.memo.preds[key], idx)
	return idx
}

// sameItems reports whether a and b hold identical items in the same
// order (nodes by identity).
func sameItems(a, b xdm.Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildPredIndex evaluates the key path for every candidate and hashes
// candidates by the key's string value.
func (ctx *dynCtx) buildPredIndex(seq xdm.Sequence, keyPath *xq.Path) *predIndex {
	idx := &predIndex{cands: append(xdm.Sequence(nil), seq...), byValue: map[string][]int{}}
	for i, it := range seq {
		if _, isNode := it.(*xdm.Node); !isNode {
			return idx // not a node candidate set
		}
		pctx := ctx.child()
		pctx.item = it
		pctx.pos = i + 1
		pctx.size = len(seq)
		keys, err := pctx.eval(keyPath)
		if err != nil {
			return idx
		}
		for _, k := range xdm.Atomize(keys) {
			switch k.(type) {
			case xdm.String, xdm.Untyped:
			default:
				return idx // non-string keys: fall back
			}
			idx.byValue[k.StringValue()] = append(idx.byValue[k.StringValue()], i)
		}
	}
	idx.ok = true
	return idx
}

// purePath reports whether p is a relative path over downward/attribute
// axes with no predicates — safe to evaluate per candidate and index.
// A path rooted at the context item (./a/b) is the relative path a/b.
func purePath(p *xq.Path) bool {
	if _, dot := p.Root.(*xq.ContextItem); (p.Root != nil && !dot) || p.FromRoot || len(p.RootPreds) > 0 {
		return false
	}
	for _, st := range p.Steps {
		if len(st.Preds) > 0 {
			return false
		}
		switch st.Axis {
		case xdm.AxisChild, xdm.AxisDescendant, xdm.AxisDescendantOrSelf,
			xdm.AxisAttribute, xdm.AxisSelf:
		default:
			return false
		}
	}
	return true
}

// contextFree reports whether the expression never consults the context
// item, position or size — so it can be evaluated once per predicate
// application instead of per candidate.
func contextFree(e xq.Expr) bool {
	switch n := e.(type) {
	case nil:
		return true
	case *xq.VarRef, *xq.StringLit, *xq.IntLit, *xq.DecimalLit, *xq.DoubleLit, *xq.EmptySeq:
		return true
	case *xq.ContextItem:
		return false
	case *xq.Path:
		if n.Root == nil {
			return false
		}
		if !contextFree(n.Root) {
			return false
		}
		for _, st := range n.Steps {
			for _, p := range st.Preds {
				if !contextFree(p) {
					return false
				}
			}
		}
		for _, p := range n.RootPreds {
			if !contextFree(p) {
				return false
			}
		}
		return true
	case *xq.FuncCall:
		switch n.Name {
		case "position", "last", "fn:position", "fn:last":
			return false
		// zero-argument string()/number()/etc. default to the context
		case "string", "number", "string-length", "normalize-space",
			"name", "local-name", "root":
			if len(n.Args) == 0 {
				return false
			}
		}
		for _, a := range n.Args {
			if !contextFree(a) {
				return false
			}
		}
		return true
	case *xq.Comparison:
		return contextFree(n.L) && contextFree(n.R)
	case *xq.Arith:
		return contextFree(n.L) && contextFree(n.R)
	case *xq.Logic:
		return contextFree(n.L) && contextFree(n.R)
	case *xq.Unary:
		return contextFree(n.X)
	case *xq.Cast:
		return contextFree(n.X)
	case *xq.SeqExpr:
		for _, it := range n.Items {
			if !contextFree(it) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
