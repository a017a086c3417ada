package interp

import (
	"sort"
	"strings"

	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// FLWOR hash join: the second of the §4 hash paths (predindex.go has
// the first). A FLWOR ending in `for $a in A, $b in B where ka = kb …`
// — the shape xq.RecognizeJoin finds, which the loop-lifting engine
// hashes too — runs Saxon-style: B is evaluated once instead of once
// per $a, each key once per binding instead of once per pair, and the
// pairs that share a key string are found by hashing. When every key
// atomizes to xs:string or xs:untypedAtomic, general `=` is codepoint
// string equality, so those are exactly the pairs the nested loop's
// where keeps, and they come out in the nested loop's (a, b) order.

// valueJoin returns the value join that clauses i and i+1 of fl form
// when the interpreter may hash it, nil otherwise. Evaluating B and the
// keys fewer times must be unobservable, so none of them may construct
// nodes (each evaluation mints new identities), call a user or host
// function, make an execute-at call or update anything.
func (ctx *dynCtx) valueJoin(fl *xq.FLWOR, i int) *xq.ValueJoin {
	if ctx.c.engine.NestedLoops || i != len(fl.Clauses)-2 {
		return nil
	}
	j, seen := ctx.memo.joins[fl]
	if !seen {
		j = xq.RecognizeJoin(fl, i)
		if j != nil && !(ctx.replayable(j.B.In) && ctx.replayable(j.KeyA) && ctx.replayable(j.KeyB)) {
			j = nil
		}
		if ctx.memo.joins == nil {
			ctx.memo.joins = map[*xq.FLWOR]*xq.ValueJoin{}
		}
		ctx.memo.joins[fl] = j
	}
	return j
}

// replayable reports whether evaluating e once and reusing the value is
// indistinguishable from evaluating it again in the same bindings.
func (ctx *dynCtx) replayable(e xq.Expr) bool {
	switch x := e.(type) {
	case *xq.DirElem, *xq.DirComment, *xq.CompElem, *xq.CompAttr, *xq.CompText,
		*xq.ExecuteAt, *xq.Insert, *xq.Delete, *xq.Replace, *xq.Rename:
		return false
	case *xq.FuncCall:
		if _, user := ctx.c.lookupFunc(ctx.module, x.Name, len(x.Args)); user {
			return false
		}
		name := strings.TrimPrefix(x.Name, "fn:")
		if _, builtin := builtins[name]; (!builtin && !strings.HasPrefix(x.Name, "xs:")) || name == "put" {
			return false
		}
	}
	for _, c := range xq.SubExprs(e) {
		if !ctx.replayable(c) {
			return false
		}
	}
	return true
}

// evalJoin runs the value join j once its first clause has produced
// seqA, calling emit with each pair's bindings and the where that is
// left to run. Hashed, the pairs are those sharing a key and only the
// where's other conjuncts remain; otherwise — a key raised an error or
// is not a string — every pair is emitted with the whole where, as the
// nested loop does.
func (ctx *dynCtx) evalJoin(j *xq.ValueJoin, seqA xdm.Sequence, where xq.Expr, emit func(*dynCtx, xq.Expr) error) error {
	if len(seqA) == 0 {
		ctx.memo.counts.FLWORJoins++
		return nil // the nested loop never evaluates B
	}
	seqB, err := ctx.eval(j.B.In)
	if err != nil {
		return err
	}
	if len(seqB) == 0 {
		ctx.memo.counts.FLWORJoins++
		return nil // nor any key
	}
	pair := func(a, b int) *dynCtx {
		next := ctx.child()
		next.bindFor(j.A, seqA, a)
		next.bindFor(j.B, seqB, b)
		return next
	}
	keysA, okA := ctx.joinKeys(j.A, seqA, j.KeyA)
	keysB, okB := ctx.joinKeys(j.B, seqB, j.KeyB)
	if !okA || !okB {
		for a := range seqA {
			for b := range seqB {
				if err := emit(pair(a, b), where); err != nil {
					return err
				}
			}
		}
		return nil
	}
	ctx.memo.counts.FLWORJoins++
	index := make(map[string][]int, len(seqB))
	for b, ks := range keysB {
		for _, k := range ks {
			if l := index[k]; len(l) == 0 || l[len(l)-1] != b {
				index[k] = append(l, b)
			}
		}
	}
	var matches []int
	seen := make([]int, len(seqB)) // 1 + the last a that matched b
	for a, ks := range keysA {
		matches = matches[:0]
		for _, k := range ks {
			for _, b := range index[k] {
				if seen[b] != a+1 {
					seen[b] = a + 1
					matches = append(matches, b)
				}
			}
		}
		if len(ks) > 1 {
			sort.Ints(matches)
		}
		for _, b := range matches {
			if err := emit(pair(a, b), j.Rest); err != nil {
				return err
			}
		}
	}
	return nil
}

// bindFor binds f's variables to item i of seq.
func (ctx *dynCtx) bindFor(f *xq.ForClause, seq xdm.Sequence, i int) {
	ctx.bind(f.Var, xdm.Singleton(seq[i]))
	if f.PosVar != "" {
		ctx.bind(f.PosVar, xdm.Singleton(xdm.Integer(i+1)))
	}
}

// joinKeys evaluates key once per item of seq, bound to f's variables,
// and returns each binding's key strings. ok is false when a key raised
// an error or atomized to anything but xs:string or xs:untypedAtomic.
func (ctx *dynCtx) joinKeys(f *xq.ForClause, seq xdm.Sequence, key xq.Expr) ([][]string, bool) {
	keys := make([][]string, len(seq))
	for i := range seq {
		kctx := ctx.child()
		kctx.bindFor(f, seq, i)
		v, err := kctx.eval(key)
		if err != nil {
			return nil, false
		}
		for _, it := range v {
			switch x := it.(type) {
			case *xdm.Node:
				keys[i] = append(keys[i], x.StringValue())
			case xdm.String:
				keys[i] = append(keys[i], string(x))
			case xdm.Untyped:
				keys[i] = append(keys[i], string(x))
			default:
				return nil, false
			}
		}
	}
	return keys, true
}
