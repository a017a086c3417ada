package pathfinder

import (
	"sort"

	"xrpc/internal/algebra"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

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
func (env *staticEnv) compileJoin(fl *xq.FLWOR, j *xq.ValueJoin, inA Plan) (Plan, error) {
	inB, err := env.compile(j.B.In)
	if err != nil {
		return nil, err
	}
	keyA, err := env.withVar(j.A.Vars()...).compile(j.KeyA)
	if err != nil {
		return nil, err
	}
	keyB, err := env.withVar(j.B.Vars()...).compile(j.KeyB)
	if err != nil {
		return nil, err
	}
	envAB := env.withVar(append(j.A.Vars(), j.B.Vars()...)...)
	matched, err := envAB.compileClauses(&xq.FLWOR{Where: j.Rest, Return: fl.Return}, 0)
	if err != nil {
		return nil, err
	}
	all, err := envAB.compileClauses(&xq.FLWOR{Where: fl.Where, Return: fl.Return}, 0)
	if err != nil {
		return nil, err
	}
	a, b := j.A, j.B
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
