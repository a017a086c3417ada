package pathfinder

import (
	"fmt"
	"strings"
	"time"

	"xrpc/internal/algebra"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

// Compiled is a loop-lifted query plan, ready for (repeated) execution —
// what MonetDB/XQuery's function cache stores.
type Compiled struct {
	Plan        Plan
	Main        *xq.Module
	CompileTime time.Duration
	comp        *compiler
}

// Compile translates a main-module query into a single bulk plan.
func Compile(src string, reg *modules.Registry) (*Compiled, error) {
	start := time.Now()
	m, err := xq.Parse(src)
	if err != nil {
		return nil, err
	}
	if m.IsLibrary {
		return nil, fmt.Errorf("pathfinder: cannot compile a library module as a query")
	}
	comp := &compiler{registry: reg, modules: map[string]*xq.Module{}}
	if err := comp.loadImports(m); err != nil {
		return nil, err
	}
	env := &staticEnv{comp: comp, module: m, vars: map[string]bool{}}
	// prolog variables compile as nested lets around the body
	body := m.Body
	for i := len(m.Variables) - 1; i >= 0; i-- {
		v := m.Variables[i]
		body = &xq.FLWOR{
			Clauses: []xq.FLWORClause{&xq.LetClause{Var: v.Name, Val: v.Val}},
			Return:  body,
		}
	}
	plan, err := env.compile(body)
	if err != nil {
		return nil, err
	}
	return &Compiled{Plan: plan, Main: m, CompileTime: time.Since(start), comp: comp}, nil
}

// Eval executes the plan with a fresh single-iteration loop relation,
// returning the result sequence. External variables are lifted as
// singleton-loop bindings.
func (c *Compiled) Eval(ec *ExecCtx, vars map[string]xdm.Sequence) (xdm.Sequence, error) {
	loop := algebra.Lit([]string{algebra.ColIter}, []xdm.Item{xdm.Integer(1)})
	sc := newScope(loop)
	for name, seq := range vars {
		tbl := seqTable()
		for p, it := range seq {
			tbl.AppendSeq(1, int64(p+1), it)
		}
		sc = sc.bind(name, tbl)
	}
	out, err := c.Plan(ec, sc)
	if err != nil {
		return nil, err
	}
	sorted := algebra.SortBy(out, algebra.ColIter, algebra.ColPos)
	xc := sorted.ColIdx(algebra.ColItem)
	seq := make(xdm.Sequence, 0, sorted.Len())
	for r := 0; r < sorted.Len(); r++ {
		seq = append(seq, sorted.Item(r, xc))
	}
	return seq, nil
}

// compiler holds cross-module compile state.
type compiler struct {
	registry *modules.Registry
	modules  map[string]*xq.Module
}

func (c *compiler) loadImports(m *xq.Module) error {
	for _, imp := range m.Imports {
		if _, done := c.modules[imp.URI]; done {
			continue
		}
		if c.registry == nil {
			return fmt.Errorf("pathfinder: no module registry for import %q", imp.URI)
		}
		lib, err := c.registry.ResolveModule(imp.URI, imp.AtHints)
		if err != nil {
			return err
		}
		c.modules[imp.URI] = lib
		if err := c.loadImports(lib); err != nil {
			return err
		}
	}
	return nil
}

// lookupFunc resolves a prefixed function name in module m's static
// context, returning the declaration, its module, and the import at-hint.
func (c *compiler) lookupFunc(m *xq.Module, name string, arity int) (*xq.FuncDecl, *xq.Module, string, bool) {
	prefix := ""
	local := name
	if i := strings.IndexByte(name, ':'); i >= 0 {
		prefix, local = name[:i], name[i+1:]
	}
	uri := m.Namespaces[prefix]
	// functions declared in m itself
	if f := m.Function(name, arity); f != nil && (uri == m.ModuleURI || prefix == "" || m.Namespaces[prefix] == m.ModuleURI || !m.IsLibrary) {
		// main-module local functions or own-module functions
		if f.LocalName() == local {
			return f, m, "", true
		}
	}
	if lib, ok := c.modules[uri]; ok {
		if f := lib.Function(local, arity); f != nil {
			hint := ""
			for _, imp := range m.Imports {
				if imp.URI == uri && len(imp.AtHints) > 0 {
					hint = imp.AtHints[0]
				}
			}
			return f, lib, hint, true
		}
	}
	return nil, nil, "", false
}

// staticEnv is the compile-time environment.
type staticEnv struct {
	comp   *compiler
	module *xq.Module
	vars   map[string]bool
	depth  int // function inlining depth
}

func (env *staticEnv) child() *staticEnv {
	vars := make(map[string]bool, len(env.vars))
	for k := range env.vars {
		vars[k] = true
	}
	return &staticEnv{comp: env.comp, module: env.module, vars: vars, depth: env.depth}
}

func (env *staticEnv) withVar(names ...string) *staticEnv {
	e := env.child()
	for _, n := range names {
		e.vars[n] = true
	}
	return e
}

func unsupported(what string) error {
	return fmt.Errorf("pathfinder: %s is not supported by the loop-lifted engine (use the interpreter)", what)
}

// compile translates one expression into a Plan.
func (env *staticEnv) compile(e xq.Expr) (Plan, error) {
	switch n := e.(type) {
	case *xq.StringLit:
		return constPlan(xdm.String(n.Val)), nil
	case *xq.IntLit:
		return constPlan(xdm.Integer(n.Val)), nil
	case *xq.DecimalLit:
		return constPlan(xdm.Decimal(n.Val)), nil
	case *xq.DoubleLit:
		return constPlan(xdm.Double(n.Val)), nil
	case *xq.EmptySeq:
		return emptyPlan(), nil
	case *xq.VarRef:
		// variables not statically in scope may still be bound at run
		// time (external variables like the $x of the Table 2 query);
		// "." and the predicate-internal variables must be static
		if !env.vars[n.Name] && strings.HasPrefix(n.Name, ".") {
			return nil, fmt.Errorf("pathfinder: undefined variable $%s", n.Name)
		}
		name := n.Name
		return func(_ *ExecCtx, sc *scope) (*algebra.Table, error) {
			tbl, ok := sc.vars[name]
			if !ok {
				// under an empty loop nothing is evaluated: a dead
				// branch (if/where pruned all iterations) must not
				// raise errors, per XQuery's conditional semantics
				if sc.loop.Len() == 0 {
					return seqTable(), nil
				}
				return nil, xdm.Errorf("XPST0008", "unbound variable $%s", name)
			}
			return tbl, nil
		}, nil
	case *xq.ContextItem:
		return env.compile(&xq.VarRef{Name: "."})
	case *xq.SeqExpr:
		return env.compileSeq(n)
	case *xq.RangeExpr:
		return env.compileRange(n)
	case *xq.Arith:
		return env.compileArith(n)
	case *xq.Unary:
		return env.compileUnary(n)
	case *xq.Comparison:
		return env.compileComparison(n)
	case *xq.Logic:
		return env.compileLogic(n)
	case *xq.If:
		return env.compileIf(n)
	case *xq.FLWOR:
		return env.compileFLWOR(n)
	case *xq.Quantified:
		return env.compileQuantified(n)
	case *xq.Path:
		return env.compilePath(n)
	case *xq.FuncCall:
		return env.compileCall(n)
	case *xq.ExecuteAt:
		return env.compileExecuteAt(n)
	case *xq.DirElem:
		return env.compileDirElem(n)
	case *xq.Enclosed:
		return env.compile(n.X)
	case *xq.CompText:
		return env.compileCompText(n)
	case *xq.Cast:
		return env.compileCast(n)
	case *xq.Castable:
		return env.compileCastable(n)
	case *xq.InstanceOf:
		return env.compileInstanceOf(n)
	case *xq.Typeswitch:
		return env.compileTypeswitch(n)
	case *xq.UnionExpr:
		return env.compileUnion(n)
	default:
		return nil, unsupported(fmt.Sprintf("expression %T", e))
	}
}

func (env *staticEnv) compileSeq(n *xq.SeqExpr) (Plan, error) {
	subs := make([]Plan, len(n.Items))
	for i, it := range n.Items {
		p, err := env.compile(it)
		if err != nil {
			return nil, err
		}
		subs[i] = p
	}
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		// union with a branch ordinal, then renumber pos within iter by
		// (branch, pos)
		acc := algebra.NewTable(algebra.ColIter, algebra.ColPos, algebra.ColItem, "branch")
		for bi, sub := range subs {
			t, err := sub(ec, sc)
			if err != nil {
				return nil, err
			}
			for ri := 0; ri < t.Len(); ri++ {
				acc.Append(t.Item(ri, 0), t.Item(ri, 1), t.Item(ri, 2), xdm.Integer(bi))
			}
		}
		ranked := algebra.RowNum(acc, "newpos", []string{"branch", algebra.ColPos}, algebra.ColIter)
		return algebra.Project(ranked, algebra.ColIter, "pos:newpos", algebra.ColItem), nil
	}, nil
}

func (env *staticEnv) compileRange(n *xq.RangeExpr) (Plan, error) {
	lo, err := env.compile(n.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := env.compile(n.Hi)
	if err != nil {
		return nil, err
	}
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		lt, err := lo(ec, sc)
		if err != nil {
			return nil, err
		}
		ht, err := hi(ec, sc)
		if err != nil {
			return nil, err
		}
		los, err := singletonByIter(lt, "range start")
		if err != nil {
			return nil, err
		}
		his, err := singletonByIter(ht, "range end")
		if err != nil {
			return nil, err
		}
		out := seqTable()
		for _, it := range itersOf(sc.loop) {
			l, okL := los[it]
			h, okH := his[it]
			if !okL || !okH {
				continue
			}
			lv, err := xdm.CastAtomic(l, "xs:integer")
			if err != nil {
				return nil, err
			}
			hv, err := xdm.CastAtomic(h, "xs:integer")
			if err != nil {
				return nil, err
			}
			pos := int64(1)
			for v := int64(lv.(xdm.Integer)); v <= int64(hv.(xdm.Integer)); v++ {
				out.AppendSeq(it, pos, xdm.Integer(v))
				pos++
			}
		}
		return out, nil
	}, nil
}

// binOpPlan joins two singleton-per-iter operands on iter and applies f.
func binOpPlan(l, r Plan, what string, f func(a, b xdm.Item) (xdm.Sequence, error)) Plan {
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		lt, err := l(ec, sc)
		if err != nil {
			return nil, err
		}
		rt, err := r(ec, sc)
		if err != nil {
			return nil, err
		}
		ls, err := singletonByIter(lt, what)
		if err != nil {
			return nil, err
		}
		rs, err := singletonByIter(rt, what)
		if err != nil {
			return nil, err
		}
		out := seqTable()
		for _, it := range itersOf(sc.loop) {
			a, okA := ls[it]
			b, okB := rs[it]
			if !okA || !okB {
				continue // empty operand -> empty result
			}
			res, err := f(a, b)
			if err != nil {
				return nil, err
			}
			for p, item := range res {
				out.AppendSeq(it, int64(p+1), item)
			}
		}
		return out, nil
	}
}

func (env *staticEnv) compileArith(n *xq.Arith) (Plan, error) {
	l, err := env.compile(n.L)
	if err != nil {
		return nil, err
	}
	r, err := env.compile(n.R)
	if err != nil {
		return nil, err
	}
	op := n.Op
	return binOpPlan(l, r, "arithmetic operand", func(a, b xdm.Item) (xdm.Sequence, error) {
		return interp.Arith(op, atomizeItem(a), atomizeItem(b))
	}), nil
}

func atomizeItem(it xdm.Item) xdm.Item {
	if n, ok := it.(*xdm.Node); ok {
		return xdm.Untyped(n.StringValue())
	}
	return it
}

func (env *staticEnv) compileUnary(n *xq.Unary) (Plan, error) {
	x, err := env.compile(n.X)
	if err != nil {
		return nil, err
	}
	if !n.Neg {
		return x, nil
	}
	zero := constPlan(xdm.Integer(0))
	return binOpPlan(zero, x, "unary operand", func(a, b xdm.Item) (xdm.Sequence, error) {
		return interp.Arith("-", a, atomizeItem(b))
	}), nil
}

func (env *staticEnv) compileComparison(n *xq.Comparison) (Plan, error) {
	l, err := env.compile(n.L)
	if err != nil {
		return nil, err
	}
	r, err := env.compile(n.R)
	if err != nil {
		return nil, err
	}
	if n.Node {
		op := n.Op
		return binOpPlan(l, r, "node comparison operand", func(a, b xdm.Item) (xdm.Sequence, error) {
			an, okA := a.(*xdm.Node)
			bn, okB := b.(*xdm.Node)
			if !okA || !okB {
				return nil, xdm.NewError("XPTY0004", "node comparison requires nodes")
			}
			switch op {
			case "is":
				return xdm.Singleton(xdm.Boolean(an == bn)), nil
			case "<<":
				return xdm.Singleton(xdm.Boolean(xdm.DocOrderLess(an, bn))), nil
			default:
				return xdm.Singleton(xdm.Boolean(xdm.DocOrderLess(bn, an))), nil
			}
		}), nil
	}
	if !n.General {
		op, err := interp.ValueOp(n.Op)
		if err != nil {
			return nil, err
		}
		return binOpPlan(l, r, "value comparison operand", func(a, b xdm.Item) (xdm.Sequence, error) {
			ok, err := xdm.CompareAtomic(atomizeItem(a), atomizeItem(b), op)
			if err != nil {
				return nil, err
			}
			return xdm.Singleton(xdm.Boolean(ok)), nil
		}), nil
	}
	// general comparison: existential over the two per-iter sequences —
	// this is the "selection turned join" effect of §3.2
	op, err := interp.GeneralOp(n.Op)
	if err != nil {
		return nil, err
	}
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		lt, err := l(ec, sc)
		if err != nil {
			return nil, err
		}
		rt, err := r(ec, sc)
		if err != nil {
			return nil, err
		}
		lg := groupByIter(lt)
		rg := groupByIter(rt)
		out := seqTable()
		for _, it := range itersOf(sc.loop) {
			b, err := xdm.GeneralCompare(lg[it], rg[it], op)
			if err != nil {
				return nil, err
			}
			out.AppendSeq(it, 1, xdm.Boolean(b))
		}
		return out, nil
	}, nil
}

func (env *staticEnv) compileLogic(n *xq.Logic) (Plan, error) {
	l, err := env.compile(n.L)
	if err != nil {
		return nil, err
	}
	r, err := env.compile(n.R)
	if err != nil {
		return nil, err
	}
	and := n.Op == "and"
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		lt, err := l(ec, sc)
		if err != nil {
			return nil, err
		}
		rt, err := r(ec, sc)
		if err != nil {
			return nil, err
		}
		lb, err := ebvByIter(lt)
		if err != nil {
			return nil, err
		}
		rb, err := ebvByIter(rt)
		if err != nil {
			return nil, err
		}
		out := seqTable()
		for _, it := range itersOf(sc.loop) {
			var v bool
			if and {
				v = lb[it] && rb[it]
			} else {
				v = lb[it] || rb[it]
			}
			out.AppendSeq(it, 1, xdm.Boolean(v))
		}
		return out, nil
	}, nil
}

func (env *staticEnv) compileIf(n *xq.If) (Plan, error) {
	cond, err := env.compile(n.Cond)
	if err != nil {
		return nil, err
	}
	then, err := env.compile(n.Then)
	if err != nil {
		return nil, err
	}
	els, err := env.compile(n.Else)
	if err != nil {
		return nil, err
	}
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		ct, err := cond(ec, sc)
		if err != nil {
			return nil, err
		}
		cb, err := ebvByIter(ct)
		if err != nil {
			return nil, err
		}
		// loop split: then-branch runs only for true iters, else-branch
		// for the rest
		loopT := subLoop(sc.loop, cb, true)
		loopF := subLoop(sc.loop, cb, false)
		tt, err := then(ec, sc.restrict(loopT))
		if err != nil {
			return nil, err
		}
		ft, err := els(ec, sc.restrict(loopF))
		if err != nil {
			return nil, err
		}
		return algebra.Union(tt, ft), nil
	}, nil
}

func (env *staticEnv) compileQuantified(n *xq.Quantified) (Plan, error) {
	// some $v in E satisfies P  ≡  exists(for $v in E where P return 1)
	inner := &xq.FLWOR{
		Clauses: []xq.FLWORClause{&xq.ForClause{Var: n.Var, In: n.In}},
		Where:   n.Satisfies,
		Return:  &xq.IntLit{Val: 1},
	}
	if n.Every {
		// every ≡ count(matching) = count(all)
		all := &xq.FLWOR{
			Clauses: []xq.FLWORClause{&xq.ForClause{Var: n.Var, In: n.In}},
			Return:  &xq.IntLit{Val: 1},
		}
		return env.compile(&xq.Comparison{
			Op: "eq",
			L:  &xq.FuncCall{Name: "count", Args: []xq.Expr{inner}},
			R:  &xq.FuncCall{Name: "count", Args: []xq.Expr{all}},
		})
	}
	return env.compile(&xq.FuncCall{Name: "exists", Args: []xq.Expr{inner}})
}

func (env *staticEnv) compileCast(n *xq.Cast) (Plan, error) {
	x, err := env.compile(n.X)
	if err != nil {
		return nil, err
	}
	typ := n.Type
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		t, err := x(ec, sc)
		if err != nil {
			return nil, err
		}
		out, err := algebra.Map1(t, "cast", algebra.ColItem, func(it xdm.Item) (xdm.Item, error) {
			return xdm.CastAtomic(it, typ)
		})
		if err != nil {
			return nil, err
		}
		return algebra.Project(out, algebra.ColIter, algebra.ColPos, "item:cast"), nil
	}, nil
}

func (env *staticEnv) compileCastable(n *xq.Castable) (Plan, error) {
	x, err := env.compile(n.X)
	if err != nil {
		return nil, err
	}
	typ := n.Type
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		t, err := x(ec, sc)
		if err != nil {
			return nil, err
		}
		groups := groupByIter(t)
		out := seqTable()
		for _, it := range itersOf(sc.loop) {
			g := xdm.Atomize(groups[it])
			ok := len(g) == 1
			if ok {
				_, castErr := xdm.CastAtomic(g[0], typ)
				ok = castErr == nil
			}
			out.AppendSeq(it, 1, xdm.Boolean(ok))
		}
		return out, nil
	}, nil
}

func (env *staticEnv) compileInstanceOf(n *xq.InstanceOf) (Plan, error) {
	x, err := env.compile(n.X)
	if err != nil {
		return nil, err
	}
	typ := n.Type
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		t, err := x(ec, sc)
		if err != nil {
			return nil, err
		}
		groups := groupByIter(t)
		out := seqTable()
		for _, it := range itersOf(sc.loop) {
			out.AppendSeq(it, 1, xdm.Boolean(interp.MatchesSeqType(groups[it], typ)))
		}
		return out, nil
	}, nil
}

// compileTypeswitch translates typeswitch by loop splitting: each case
// claims the iterations whose operand value matches its sequence type
// (first match wins), the default takes the rest — the same pattern as
// if/then/else.
func (env *staticEnv) compileTypeswitch(n *xq.Typeswitch) (Plan, error) {
	operand, err := env.compile(n.Operand)
	if err != nil {
		return nil, err
	}
	type casePlan struct {
		varName string
		typ     xq.SeqType
		plan    Plan
	}
	var cases []casePlan
	for _, c := range n.Cases {
		cenv := env
		if c.Var != "" {
			cenv = env.withVar(c.Var)
		}
		p, err := cenv.compile(c.Ret)
		if err != nil {
			return nil, err
		}
		cases = append(cases, casePlan{varName: c.Var, typ: c.Type, plan: p})
	}
	denv := env
	if n.DefaultVar != "" {
		denv = env.withVar(n.DefaultVar)
	}
	defPlan, err := denv.compile(n.Default)
	if err != nil {
		return nil, err
	}
	defVar := n.DefaultVar
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		ot, err := operand(ec, sc)
		if err != nil {
			return nil, err
		}
		groups := groupByIter(ot)
		claimed := map[int64]bool{}
		var outs []*algebra.Table
		runBranch := func(varName string, plan Plan, iters []int64) error {
			if len(iters) == 0 {
				return nil
			}
			loop := algebra.NewTable(algebra.ColIter)
			for _, it := range iters {
				loop.Append(xdm.Integer(it))
			}
			bsc := sc.restrict(loop)
			if varName != "" {
				seqs := map[int64]xdm.Sequence{}
				for _, it := range iters {
					seqs[it] = groups[it]
				}
				bsc = bsc.bind(varName, tableFromSeqs(iters, seqs))
			}
			t, err := plan(ec, bsc)
			if err != nil {
				return err
			}
			outs = append(outs, t)
			return nil
		}
		for _, c := range cases {
			var iters []int64
			for _, it := range itersOf(sc.loop) {
				if claimed[it] {
					continue
				}
				if interp.MatchesSeqType(groups[it], c.typ) {
					claimed[it] = true
					iters = append(iters, it)
				}
			}
			if err := runBranch(c.varName, c.plan, iters); err != nil {
				return nil, err
			}
		}
		var rest []int64
		for _, it := range itersOf(sc.loop) {
			if !claimed[it] {
				rest = append(rest, it)
			}
		}
		if err := runBranch(defVar, defPlan, rest); err != nil {
			return nil, err
		}
		if len(outs) == 0 {
			return seqTable(), nil
		}
		return algebra.UnionAll(outs...), nil
	}, nil
}

func (env *staticEnv) compileUnion(n *xq.UnionExpr) (Plan, error) {
	l, err := env.compile(n.L)
	if err != nil {
		return nil, err
	}
	r, err := env.compile(n.R)
	if err != nil {
		return nil, err
	}
	return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
		lt, err := l(ec, sc)
		if err != nil {
			return nil, err
		}
		rt, err := r(ec, sc)
		if err != nil {
			return nil, err
		}
		lg := groupByIter(lt)
		rg := groupByIter(rt)
		iters := itersOf(sc.loop)
		seqs := map[int64]xdm.Sequence{}
		for _, it := range iters {
			nodes := make([]*xdm.Node, 0, len(lg[it])+len(rg[it]))
			for _, item := range append(append(xdm.Sequence{}, lg[it]...), rg[it]...) {
				nd, ok := item.(*xdm.Node)
				if !ok {
					return nil, xdm.NewError("XPTY0004", "union operand contains non-nodes")
				}
				nodes = append(nodes, nd)
			}
			seqs[it] = xdm.NodeSeq(xdm.SortDocOrderDedup(nodes))
		}
		return tableFromSeqs(iters, seqs), nil
	}, nil
}

// ------------------------------------------------------------- FLWOR

func (env *staticEnv) compileFLWOR(fl *xq.FLWOR) (Plan, error) {
	if len(fl.OrderBy) > 0 {
		return nil, unsupported("order by")
	}
	return env.compileClauses(fl, 0)
}

func (env *staticEnv) compileClauses(fl *xq.FLWOR, i int) (Plan, error) {
	if i == len(fl.Clauses) {
		var condPlan Plan
		if fl.Where != nil {
			p, err := env.compile(fl.Where)
			if err != nil {
				return nil, err
			}
			condPlan = p
		}
		retPlan, err := env.compile(fl.Return)
		if err != nil {
			return nil, err
		}
		return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
			if condPlan != nil {
				ct, err := condPlan(ec, sc)
				if err != nil {
					return nil, err
				}
				cb, err := ebvByIter(ct)
				if err != nil {
					return nil, err
				}
				sc = sc.restrict(subLoop(sc.loop, cb, true))
			}
			return retPlan(ec, sc)
		}, nil
	}
	switch cl := fl.Clauses[i].(type) {
	case *xq.LetClause:
		valPlan, err := env.compile(cl.Val)
		if err != nil {
			return nil, err
		}
		rest, err := env.withVar(cl.Var).compileClauses(fl, i+1)
		if err != nil {
			return nil, err
		}
		varName := cl.Var
		return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
			val, err := valPlan(ec, sc)
			if err != nil {
				return nil, err
			}
			return rest(ec, sc.bind(varName, val))
		}, nil
	case *xq.ForClause:
		inPlan, err := env.compile(cl.In)
		if err != nil {
			return nil, err
		}
		if j := xq.RecognizeJoin(fl, i); j != nil {
			return env.compileJoin(fl, j, inPlan)
		}
		rest, err := env.withVar(cl.Vars()...).compileClauses(fl, i+1)
		if err != nil {
			return nil, err
		}
		return func(ec *ExecCtx, sc *scope) (*algebra.Table, error) {
			q1, err := inPlan(ec, sc)
			if err != nil {
				return nil, err
			}
			l := liftRows(q1, cl.PosVar != "")
			sc2, mapTbl := innerScope(sc, l.outer, l.binds(cl))
			q2, err := rest(ec, sc2)
			if err != nil {
				return nil, err
			}
			return mapBack(q2, mapTbl), nil
		}, nil
	}
	return nil, unsupported("FLWOR clause")
}

// lifted is an in-expression result numbered into an inner loop: row
// k-1 is inner iteration k, in (outer iteration, position) order.
type lifted struct {
	outer []int64
	items []xdm.Item
	pos   []xdm.Item // positions, for an `at` variable; nil when unused
}

func liftRows(q *algebra.Table, withPos bool) lifted {
	sorted := algebra.SortBy(q, algebra.ColIter, algebra.ColPos)
	n := sorted.Len()
	l := lifted{outer: sorted.IntsOf(algebra.ColIter), items: make([]xdm.Item, n)}
	xc, pc := sorted.ColIdx(algebra.ColItem), sorted.ColIdx(algebra.ColPos)
	for r := range l.items {
		l.items[r] = sorted.Item(r, xc)
	}
	if withPos {
		l.pos = make([]xdm.Item, n)
		for r := range l.pos {
			l.pos[r] = sorted.Item(r, pc)
		}
	}
	return l
}

// binds binds a for clause's variables to the lifted rows.
func (l lifted) binds(f *xq.ForClause) []varBind {
	return []varBind{{f.Var, l.items}, {f.PosVar, l.pos}}
}

// varBind binds a variable to one item per inner iteration; a binding
// with an empty name is skipped.
type varBind struct {
	name  string
	items []xdm.Item
}

// innerScope opens an inner loop 1..len(outer) whose iteration k
// descends from outer iteration outer[k-1]: the live variables of sc
// are mapped into it (the map_p application of §3.1) and binds add one
// item per inner iteration. It returns the scope and the inner|outer
// mapping table for mapBack.
func innerScope(sc *scope, outer []int64, binds []varBind) (*scope, *algebra.Table) {
	inner := make([]int64, len(outer))
	for k := range inner {
		inner[k] = int64(k + 1)
	}
	mapTbl := algebra.IntTable([]string{"inner", "outer"}, inner, outer)
	out := newScope(algebra.IntTable([]string{algebra.ColIter}, inner))
	for name, tbl := range sc.vars {
		joined := algebra.Join(mapTbl, tbl, "outer", algebra.ColIter)
		out.vars[name] = algebra.Project(joined, "iter:inner", algebra.ColPos, algebra.ColItem)
	}
	for _, b := range binds {
		if b.name == "" {
			continue
		}
		t := seqTable()
		for k, it := range b.items {
			t.AppendSeq(int64(k+1), 1, it)
		}
		out.vars[b.name] = t
	}
	return out, mapTbl
}

// mapBack maps an inner-loop result back to the outer loop: inner iters
// are replaced by their outer iter, with positions renumbered by (inner,
// pos) within each outer iteration.
func mapBack(q2, mapTbl *algebra.Table) *algebra.Table {
	joined := algebra.Join(q2, mapTbl, algebra.ColIter, "inner")
	ranked := algebra.RowNum(joined, "newpos", []string{algebra.ColIter, algebra.ColPos}, "outer")
	return algebra.Project(ranked, "iter:outer", "pos:newpos", algebra.ColItem)
}
