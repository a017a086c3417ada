package pathfinder

import (
	"sort"

	"xrpc/internal/algebra"
	"xrpc/internal/shred"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// compilePath translates a path expression. The root must be explicit
// (a doc() call, variable, or other primary) — the loop-lifted engine
// evaluates whole queries and has no ambient context node except inside
// predicates, where "." is a bound variable.
func (env *staticEnv) compilePath(p *xq.Path) (Plan, error) {
	var rootPlan Plan
	switch {
	case p.Root != nil:
		rp, err := env.compile(p.Root)
		if err != nil {
			return nil, err
		}
		rootPlan = rp
	case env.vars["."]:
		rp, err := env.compile(&xq.VarRef{Name: "."})
		if err != nil {
			return nil, err
		}
		if p.FromRoot {
			inner := rp
			rootPlan = func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
				t, err := inner(ec, sc)
				if err != nil {
					return nil, err
				}
				return algebra.Project(mapNodes(t, func(n *xdm.Node) *xdm.Node { return n.Root() }),
					algebra.ColIter, algebra.ColPos, algebra.ColItem), nil
			}
		} else {
			rootPlan = rp
		}
	default:
		return nil, unsupported("path without explicit root")
	}

	// root predicates (filter expressions)
	rootPreds := p.RootPreds
	steps := p.Steps
	predPlans := make([][]predPlan, len(steps))
	for i, st := range steps {
		for _, pe := range st.Preds {
			pp, err := env.compilePredicate(pe)
			if err != nil {
				return nil, err
			}
			predPlans[i] = append(predPlans[i], pp)
		}
	}
	var rootPredPlans []predPlan
	for _, pe := range rootPreds {
		pp, err := env.compilePredicate(pe)
		if err != nil {
			return nil, err
		}
		rootPredPlans = append(rootPredPlans, pp)
	}

	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		cur, err := rootPlan(ec, sc)
		if err != nil {
			return nil, err
		}
		for _, pp := range rootPredPlans {
			cur, err = applyPred(ec, sc, cur, pp)
			if err != nil {
				return nil, err
			}
		}
		for si, st := range steps {
			cur, err = execStep(ec, sc, cur, st, predPlans[si])
			if err != nil {
				return nil, err
			}
		}
		return cur, nil
	}, nil
}

// mapNodes applies f to every node item of an iter|pos|item table.
func mapNodes(t *algebra.Table, f func(*xdm.Node) *xdm.Node) *algebra.Table {
	out := seqTable()
	xc := t.ColIdx(algebra.ColItem)
	for ri := 0; ri < t.Len(); ri++ {
		it := t.Item(ri, xc)
		if n, ok := it.(*xdm.Node); ok {
			it = f(n)
		}
		out.Append(t.Item(ri, 0), t.Item(ri, 1), it)
	}
	return out
}

// execStep performs one axis step for the whole context at once. The
// (iter, node) rows are resolved to (document, pre) pairs, and each
// document answers all of its rows in one staircase pass. Without
// predicates the rows group by iteration; with predicates every context
// row is a group of its own, because position() counts per context
// node. The kept candidates come back in per-iteration document order
// without duplicates.
func execStep(ec *ExecCtx, sc *scope, ctx *algebra.Table, st xq.Step, preds []predPlan) (*algebra.Table, error) {
	type ctxRow struct {
		doc   int
		group int64
		pre   int
	}
	iters := ctx.IntsOf(algebra.ColIter)
	xc := ctx.ColIdx(algebra.ColItem)
	rows := make([]ctxRow, len(iters))
	var docs []*shred.Doc
	docIdx := map[*shred.Doc]int{}
	for r, it := range iters {
		n, ok := ctx.Item(r, xc).(*xdm.Node)
		if !ok {
			return nil, xdm.NewError("XPTY0004", "path step applied to a non-node")
		}
		d := ec.shredFor(n)
		pre, ok := d.Pre(n)
		if !ok {
			return nil, xdm.NewError("XPTY0004", "node not found in shredded doc")
		}
		di, seen := docIdx[d]
		if !seen {
			di = len(docs)
			docIdx[d] = di
			docs = append(docs, d)
		}
		if len(preds) > 0 {
			it = int64(r)
		}
		rows[r] = ctxRow{di, it, pre}
	}
	less := func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.doc != b.doc {
			return a.doc < b.doc
		}
		return a.group < b.group || a.group == b.group && a.pre < b.pre
	}
	if !sort.SliceIsSorted(rows, less) {
		sort.Slice(rows, less)
	}
	groups, pres := make([]int64, len(rows)), make([]int, len(rows))
	for i, r := range rows {
		groups[i], pres[i] = r.group, r.pre
	}
	var cands []stepCand
	for lo := 0; lo < len(rows); {
		hi := lo + 1
		for hi < len(rows) && rows[hi].doc == rows[lo].doc {
			hi++
		}
		d := docs[rows[lo].doc]
		gs, qs := d.Step(groups[lo:hi], pres[lo:hi], st.Axis, st.Test)
		for i, q := range qs {
			it := gs[i]
			if len(preds) > 0 {
				it = iters[it]
			}
			cands = append(cands, stepCand{group: gs[i], iter: it, node: d.Node(q)})
		}
		lo = hi
	}
	for _, pp := range preds {
		var err error
		if cands, err = filterCands(ec, sc, cands, pp); err != nil {
			return nil, err
		}
	}
	// per-iteration document order and duplicate elimination: already
	// in place for one document without predicates
	if !candsOrdered(cands) {
		sort.SliceStable(cands, func(i, j int) bool { return candLess(cands[i], cands[j]) })
	}
	out := seqTable()
	var pos int64
	for i, c := range cands {
		switch {
		case i > 0 && c.iter == cands[i-1].iter && c.node == cands[i-1].node:
			continue
		case i > 0 && c.iter == cands[i-1].iter:
			pos++
		default:
			pos = 1
		}
		out.AppendSeq(c.iter, pos, c.node)
	}
	return out, nil
}

// stepCand is one step result: the node, the context group that
// produced it, and that group's iteration.
type stepCand struct {
	group, iter int64
	node        *xdm.Node
}

func candLess(a, b stepCand) bool {
	if a.iter != b.iter {
		return a.iter < b.iter
	}
	return xdm.DocOrderLess(a.node, b.node)
}

// candsOrdered reports whether cands are strictly ascending by (iter,
// document order).
func candsOrdered(cands []stepCand) bool {
	for i := 1; i < len(cands); i++ {
		if !candLess(cands[i-1], cands[i]) {
			return false
		}
	}
	return true
}

// filterCands applies one step predicate to the candidates, loop-lifted
// over all of them at once; position() and last() count within each
// context group.
func filterCands(ec *ExecCtx, sc *scope, cands []stepCand, pp predPlan) ([]stepCand, error) {
	groups := make([]int64, len(cands))
	outer := make([]int64, len(cands))
	items := make([]xdm.Item, len(cands))
	for i, c := range cands {
		groups[i], outer[i], items[i] = c.group, c.iter, c.node
	}
	keep, err := evalPredKeep(ec, sc, pp, groups, outer, items)
	if err != nil {
		return nil, err
	}
	kept := cands[:0]
	for i, c := range cands {
		if keep[i] {
			kept = append(kept, c)
		}
	}
	return kept, nil
}

// predPlan is a compiled predicate.
type predPlan struct {
	plan Plan
	// constPos holds a constant positional predicate value (e.g. [2]),
	// 0 when not constant.
	constPos int64
}

func (env *staticEnv) compilePredicate(pe xq.Expr) (predPlan, error) {
	if lit, ok := pe.(*xq.IntLit); ok {
		return predPlan{constPos: lit.Val}, nil
	}
	inner := env.withVar(".", "@position", "@last")
	// rewrite position()/last() to the special vars
	p, err := inner.compile(rewritePosLast(pe))
	if err != nil {
		return predPlan{}, err
	}
	return predPlan{plan: p}, nil
}

// rewritePosLast substitutes position() and last() calls with the
// predicate-scope variables.
func rewritePosLast(e xq.Expr) xq.Expr {
	switch n := e.(type) {
	case *xq.FuncCall:
		if len(n.Args) == 0 && (n.Name == "position" || n.Name == "fn:position") {
			return &xq.VarRef{Name: "@position"}
		}
		if len(n.Args) == 0 && (n.Name == "last" || n.Name == "fn:last") {
			return &xq.VarRef{Name: "@last"}
		}
		args := make([]xq.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = rewritePosLast(a)
		}
		return &xq.FuncCall{Name: n.Name, Args: args}
	case *xq.Comparison:
		return &xq.Comparison{Op: n.Op, General: n.General, Node: n.Node,
			L: rewritePosLast(n.L), R: rewritePosLast(n.R)}
	case *xq.Logic:
		return &xq.Logic{Op: n.Op, L: rewritePosLast(n.L), R: rewritePosLast(n.R)}
	case *xq.Arith:
		return &xq.Arith{Op: n.Op, L: rewritePosLast(n.L), R: rewritePosLast(n.R)}
	default:
		return e
	}
}

// evalPredKeep evaluates a predicate over an inner loop of candidates:
// candidate k is items[k] in outer iteration outer[k], and position()
// and last() count within its run of equal groups[k]. It reports which
// candidates to keep: a numeric predicate value selects by position,
// anything else goes through the effective boolean value.
func evalPredKeep(ec *ExecCtx, sc *scope, pp predPlan, groups, outer []int64, items []xdm.Item) ([]bool, error) {
	pos, last := make([]int64, len(items)), make([]int64, len(items))
	for lo := 0; lo < len(groups); {
		hi := lo + 1
		for hi < len(groups) && groups[hi] == groups[lo] {
			hi++
		}
		for i := lo; i < hi; i++ {
			pos[i], last[i] = int64(i-lo+1), int64(hi-lo)
		}
		lo = hi
	}
	keep := make([]bool, len(items))
	if pp.constPos != 0 {
		for i, p := range pos {
			keep[i] = p == pp.constPos
		}
		return keep, nil
	}
	sc2, _ := innerScope(sc, outer, []varBind{{".", items}, {"@position", intItems(pos)}, {"@last", intItems(last)}})
	t, err := pp.plan(ec, sc2)
	if err != nil {
		return nil, err
	}
	vals := groupByIter(t)
	for i := range keep {
		seq := vals[int64(i+1)]
		if len(seq) == 1 && xdm.IsNumeric(seq[0]) {
			f, _ := xdm.NumericValue(seq[0])
			keep[i] = float64(pos[i]) == f
			continue
		}
		b, err := xdm.EffectiveBoolean(seq)
		if err != nil {
			return nil, err
		}
		keep[i] = b
	}
	return keep, nil
}

func intItems(xs []int64) []xdm.Item {
	out := make([]xdm.Item, len(xs))
	for i, x := range xs {
		out[i] = xdm.Integer(x)
	}
	return out
}

// applyPred filters an item table by a predicate (for root filter
// expressions: positions count within each iteration's sequence).
func applyPred(ec *ExecCtx, sc *scope, t *algebra.Table, pp predPlan) (*algebra.Table, error) {
	sorted := algebra.SortBy(t, algebra.ColIter, algebra.ColPos)
	iters := sorted.IntsOf(algebra.ColIter)
	xc := sorted.ColIdx(algebra.ColItem)
	items := make([]xdm.Item, len(iters))
	for r := range items {
		items[r] = sorted.Item(r, xc)
	}
	keep, err := evalPredKeep(ec, sc, pp, iters, iters, items)
	if err != nil {
		return nil, err
	}
	out := seqTable()
	var newPos int64
	for r, it := range iters {
		if r == 0 || it != iters[r-1] {
			newPos = 0
		}
		if keep[r] {
			newPos++
			out.AppendSeq(it, newPos, items[r])
		}
	}
	return out, nil
}
