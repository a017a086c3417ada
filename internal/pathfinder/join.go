package pathfinder

import (
	"sort"

	"xrpc/internal/algebra"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// valueJoin is a recognized value join: `for $a in A, $b in B where
// ka = kb and … return R`, with ka over $a only and kb over $b only.
type valueJoin struct {
	a, b       *xq.ForClause
	keyA, keyB xq.Expr
	rest       xq.Expr // the where's other conjuncts; nil when none
}

// recognizeJoin reports whether clauses i and i+1 of fl form a value
// join: they are the FLWOR's last two clauses, both for clauses, B does
// not refer to the first clause's variables, and the leftmost conjunct
// of the where is a general `=` between a side over the first clause's
// variables only and a side over the second's only. Only the leftmost
// conjunct qualifies: the interpreter's `and` evaluates from the left,
// so only that conjunct runs for every pair, and filtering the pairs on
// it first raises the same errors.
func recognizeJoin(fl *xq.FLWOR, i int) *valueJoin {
	if fl.Where == nil || i != len(fl.Clauses)-2 {
		return nil
	}
	a, okA := fl.Clauses[i].(*xq.ForClause)
	b, okB := fl.Clauses[i+1].(*xq.ForClause)
	if !okA || !okB {
		return nil
	}
	varsA, varsB := forVars(a), forVars(b)
	for _, v := range varsA {
		for _, w := range varsB {
			if v == w {
				return nil // a name bound twice: references are ambiguous
			}
		}
	}
	if refsVar(b.In, varsA) {
		return nil
	}
	conj := conjuncts(fl.Where, nil)
	c, ok := conj[0].(*xq.Comparison)
	if !ok || !c.General || c.Op != "=" {
		return nil
	}
	j := &valueJoin{a: a, b: b}
	switch {
	case onlyOver(c.L, varsA, varsB) && onlyOver(c.R, varsB, varsA):
		j.keyA, j.keyB = c.L, c.R
	case onlyOver(c.R, varsA, varsB) && onlyOver(c.L, varsB, varsA):
		j.keyA, j.keyB = c.R, c.L
	default:
		return nil
	}
	for _, c := range conj[1:] {
		if j.rest == nil {
			j.rest = c
		} else {
			j.rest = &xq.Logic{Op: "and", L: j.rest, R: c}
		}
	}
	return j
}

// forVars lists the variables a for clause binds.
func forVars(f *xq.ForClause) []string {
	if f.PosVar == "" {
		return []string{f.Var}
	}
	return []string{f.Var, f.PosVar}
}

// onlyOver reports whether e refers to its own clause's variables and
// to none of the other clause's.
func onlyOver(e xq.Expr, own, other []string) bool {
	return refsVar(e, own) && !refsVar(e, other)
}

// refsVar reports whether e refers to any of the named variables. It
// ignores shadowing by inner bindings, so it may answer true where the
// reference is to another variable of the same name: conservative for
// join recognition.
func refsVar(e xq.Expr, names []string) bool {
	if v, ok := e.(*xq.VarRef); ok {
		for _, n := range names {
			if v.Name == n {
				return true
			}
		}
		return false
	}
	for _, c := range subExprs(e) {
		if refsVar(c, names) {
			return true
		}
	}
	return false
}

// subExprs lists the direct subexpressions of e.
func subExprs(e xq.Expr) []xq.Expr {
	var out []xq.Expr
	add := func(xs ...xq.Expr) {
		for _, x := range xs {
			if x != nil {
				out = append(out, x)
			}
		}
	}
	switch x := e.(type) {
	case *xq.SeqExpr:
		add(x.Items...)
	case *xq.RangeExpr:
		add(x.Lo, x.Hi)
	case *xq.Arith:
		add(x.L, x.R)
	case *xq.Unary:
		add(x.X)
	case *xq.Comparison:
		add(x.L, x.R)
	case *xq.Logic:
		add(x.L, x.R)
	case *xq.UnionExpr:
		add(x.L, x.R)
	case *xq.If:
		add(x.Cond, x.Then, x.Else)
	case *xq.FLWOR:
		for _, cl := range x.Clauses {
			switch c := cl.(type) {
			case *xq.ForClause:
				add(c.In)
			case *xq.LetClause:
				add(c.Val)
			}
		}
		add(x.Where)
		for _, o := range x.OrderBy {
			add(o.Key)
		}
		add(x.Return)
	case *xq.Quantified:
		add(x.In, x.Satisfies)
	case *xq.Path:
		add(x.Root)
		add(x.RootPreds...)
		for _, s := range x.Steps {
			add(s.Preds...)
		}
	case *xq.FuncCall:
		add(x.Args...)
	case *xq.ExecuteAt:
		add(x.Dest)
		if x.Call != nil {
			add(x.Call)
		}
	case *xq.DirElem:
		for _, a := range x.Attrs {
			add(a.Value...)
		}
		add(x.Content...)
	case *xq.Enclosed:
		add(x.X)
	case *xq.CompElem:
		add(x.Name, x.Content)
	case *xq.CompAttr:
		add(x.Name, x.Value)
	case *xq.CompText:
		add(x.Val)
	case *xq.Typeswitch:
		add(x.Operand)
		for _, c := range x.Cases {
			add(c.Ret)
		}
		add(x.Default)
	case *xq.Cast:
		add(x.X)
	case *xq.Castable:
		add(x.X)
	case *xq.InstanceOf:
		add(x.X)
	case *xq.Insert:
		add(x.Source, x.Target)
	case *xq.Delete:
		add(x.Target)
	case *xq.Replace:
		add(x.Target, x.Source)
	case *xq.Rename:
		add(x.Target, x.NewName)
	}
	return out
}

// compileJoin compiles a recognized value join. At run time A and B are
// each evaluated once in the enclosing loop, and each key once per
// binding of its own variable. When every key atomizes to xs:string or
// xs:untypedAtomic, general `=` is codepoint string equality, so a hash
// join on (outer iteration, key) finds exactly the matching pairs, and
// only the where's other conjuncts still run per pair. Otherwise —
// other key types, or a key that raises an error — every pair of the
// same outer iteration is formed and the whole where runs per pair, as
// nested for clauses would. Either way the pairs come in nested-loop
// order and form the inner loop of the return clause.
func (env *staticEnv) compileJoin(fl *xq.FLWOR, j *valueJoin, inA Plan) (Plan, error) {
	inB, err := env.compile(j.b.In)
	if err != nil {
		return nil, err
	}
	keyA, err := env.withVar(forVars(j.a)...).compile(j.keyA)
	if err != nil {
		return nil, err
	}
	keyB, err := env.withVar(forVars(j.b)...).compile(j.keyB)
	if err != nil {
		return nil, err
	}
	envAB := env.withVar(append(forVars(j.a), forVars(j.b)...)...)
	matched, err := envAB.compileClauses(&xq.FLWOR{Where: j.rest, Return: fl.Return}, 0)
	if err != nil {
		return nil, err
	}
	all, err := envAB.compileClauses(&xq.FLWOR{Where: fl.Where, Return: fl.Return}, 0)
	if err != nil {
		return nil, err
	}
	a, b := j.a, j.b
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		qa, err := inA(ec, sc)
		if err != nil {
			return nil, err
		}
		la := liftRows(qa, a.PosVar != "")
		// B runs only in outer iterations that bind $a at all
		scB := sc
		live := map[int64]bool{}
		for _, it := range la.outer {
			live[it] = true
		}
		if len(live) < sc.loop.Len() {
			scB = sc.restrict(subLoop(sc.loop, live, true))
		}
		qb, err := inB(ec, scB)
		if err != nil {
			return nil, err
		}
		lb := liftRows(qb, b.PosVar != "")

		var pa, pb []int32
		joined := false
		scA, _ := innerScope(sc, la.outer, la.binds(a))
		if ka, ok := stringKeys(ec, keyA, scA); ok {
			scBi, _ := innerScope(sc, lb.outer, lb.binds(b))
			if kb, ok := stringKeys(ec, keyB, scBi); ok {
				pa, pb = hashJoin(la.outer, ka, lb.outer, kb)
				joined = true
			}
		}
		tail := matched
		if joined {
			ec.hashJoins++
		} else {
			pa, pb = crossPairs(la.outer, lb.outer)
			tail = all
		}
		outer := make([]int64, len(pa))
		for k, ai := range pa {
			outer[k] = la.outer[ai]
		}
		binds := append(la.gather(a, pa), lb.gather(b, pb)...)
		scP, mapTbl := innerScope(sc, outer, binds)
		q, err := tail(ec, scP)
		if err != nil {
			return nil, err
		}
		return mapBack(q, mapTbl), nil
	}, nil
}

// gather binds a for clause's variables to the lifted rows at sel.
func (l lifted) gather(f *xq.ForClause, sel []int32) []varBind {
	return lifted{items: pick(l.items, sel), pos: pick(l.pos, sel)}.binds(f)
}

func pick(items []xdm.Item, sel []int32) []xdm.Item {
	if items == nil {
		return nil
	}
	out := make([]xdm.Item, len(sel))
	for k, r := range sel {
		out[k] = items[r]
	}
	return out
}

// joinKeys are a key's atomized values: keys[r] belongs to inner
// iteration iters[r], ascending.
type joinKeys struct {
	iters []int64
	keys  []string
}

// stringKeys evaluates a join key once per binding and atomizes it. ok
// is false when the key raised an error or produced an item other than
// xs:string, xs:untypedAtomic or a node (which atomizes to
// xs:untypedAtomic): general `=` is then more than string equality.
func stringKeys(ec *ExecCtx, key Plan, sc *scope) (joinKeys, bool) {
	t, err := key(ec, sc)
	if err != nil {
		return joinKeys{}, false
	}
	sorted := algebra.SortBy(t, algebra.ColIter, algebra.ColPos)
	xc := sorted.ColIdx(algebra.ColItem)
	k := joinKeys{iters: sorted.IntsOf(algebra.ColIter), keys: make([]string, sorted.Len())}
	for r := range k.keys {
		switch v := sorted.Item(r, xc).(type) {
		case *xdm.Node:
			k.keys[r] = v.StringValue()
		case xdm.String:
			k.keys[r] = string(v)
		case xdm.Untyped:
			k.keys[r] = string(v)
		default:
			return joinKeys{}, false
		}
	}
	return k, true
}

// hashJoin pairs each binding a with the bindings b of the same outer
// iteration that share at least one key with it. Pairs are 0-based
// (a, b) row indexes, each pair once, in (a, b) order — the order of
// nested for loops.
func hashJoin(outerA []int64, ka joinKeys, outerB []int64, kb joinKeys) (pa, pb []int32) {
	type hkey struct {
		outer int64
		key   string
	}
	index := make(map[hkey][]int32, len(kb.keys))
	for r, it := range kb.iters {
		k := hkey{outerB[it-1], kb.keys[r]}
		index[k] = append(index[k], int32(it-1))
	}
	seen := make([]int32, len(outerB)) // 1 + the last a that matched b
	for lo := 0; lo < len(ka.iters); {
		a := ka.iters[lo]
		hi := lo + 1
		for hi < len(ka.iters) && ka.iters[hi] == a {
			hi++
		}
		start := len(pb)
		for r := lo; r < hi; r++ {
			for _, bi := range index[hkey{outerA[a-1], ka.keys[r]}] {
				if seen[bi] != int32(a) {
					seen[bi] = int32(a)
					pb = append(pb, bi)
				}
			}
		}
		if hi-lo > 1 {
			m := pb[start:]
			sort.Slice(m, func(x, y int) bool { return m[x] < m[y] })
		}
		for range pb[start:] {
			pa = append(pa, int32(a-1))
		}
		lo = hi
	}
	return pa, pb
}

// crossPairs pairs each binding a with every binding b of the same
// outer iteration, in (a, b) order. Both sides are in outer order.
func crossPairs(outerA, outerB []int64) (pa, pb []int32) {
	lo := 0
	for ai, o := range outerA {
		for lo < len(outerB) && outerB[lo] < o {
			lo++
		}
		for bi := lo; bi < len(outerB) && outerB[bi] == o; bi++ {
			pa = append(pa, int32(ai))
			pb = append(pb, int32(bi))
		}
	}
	return pa, pb
}
