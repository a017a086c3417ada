package xq

// ValueJoin is a recognized value join: `for $a in A, $b in B where
// ka = kb and … return R`, with ka over $a only and kb over $b only.
// Both engines evaluate it as a hash join on the keys' string values.
type ValueJoin struct {
	A, B       *ForClause
	KeyA, KeyB Expr
	Rest       Expr // the where's other conjuncts; nil when none
}

// RecognizeJoin reports whether clauses i and i+1 of fl form a value
// join: they are the FLWOR's last two clauses, both for clauses, B does
// not refer to the first clause's variables, and the leftmost conjunct
// of the where is a general `=` between a side over the first clause's
// variables only and a side over the second's only. Only the leftmost
// conjunct qualifies: `and` evaluates from the left, so only that
// conjunct runs for every pair, and filtering the pairs on it first
// raises the same errors.
func RecognizeJoin(fl *FLWOR, i int) *ValueJoin {
	if fl.Where == nil || i != len(fl.Clauses)-2 {
		return nil
	}
	a, okA := fl.Clauses[i].(*ForClause)
	b, okB := fl.Clauses[i+1].(*ForClause)
	if !okA || !okB {
		return nil
	}
	varsA, varsB := a.Vars(), b.Vars()
	for _, v := range varsA {
		for _, w := range varsB {
			if v == w {
				return nil // a name bound twice: references are ambiguous
			}
		}
	}
	if RefsVar(b.In, varsA) {
		return nil
	}
	conj := Conjuncts(fl.Where, nil)
	c, ok := conj[0].(*Comparison)
	if !ok || !c.General || c.Op != "=" {
		return nil
	}
	j := &ValueJoin{A: a, B: b}
	switch {
	case onlyOver(c.L, varsA, varsB) && onlyOver(c.R, varsB, varsA):
		j.KeyA, j.KeyB = c.L, c.R
	case onlyOver(c.R, varsA, varsB) && onlyOver(c.L, varsB, varsA):
		j.KeyA, j.KeyB = c.R, c.L
	default:
		return nil
	}
	for _, c := range conj[1:] {
		if j.Rest == nil {
			j.Rest = c
		} else {
			j.Rest = &Logic{Op: "and", L: j.Rest, R: c}
		}
	}
	return j
}

// Vars lists the variables a for clause binds.
func (f *ForClause) Vars() []string {
	if f.PosVar == "" {
		return []string{f.Var}
	}
	return []string{f.Var, f.PosVar}
}

// onlyOver reports whether e refers to its own clause's variables and
// to none of the other clause's.
func onlyOver(e Expr, own, other []string) bool {
	return RefsVar(e, own) && !RefsVar(e, other)
}

// Conjuncts flattens an and-chain, appending its operands to out.
func Conjuncts(e Expr, out []Expr) []Expr {
	if l, ok := e.(*Logic); ok && l.Op == "and" {
		return Conjuncts(l.R, Conjuncts(l.L, out))
	}
	return append(out, e)
}

// RefsVar reports whether e refers to any of the named variables. It
// ignores shadowing by inner bindings, so it may answer true where the
// reference is to another variable of the same name: conservative for
// join recognition.
func RefsVar(e Expr, names []string) bool {
	if v, ok := e.(*VarRef); ok {
		for _, n := range names {
			if v.Name == n {
				return true
			}
		}
		return false
	}
	for _, c := range SubExprs(e) {
		if RefsVar(c, names) {
			return true
		}
	}
	return false
}

// SubExprs lists the direct subexpressions of e.
func SubExprs(e Expr) []Expr {
	var out []Expr
	add := func(xs ...Expr) {
		for _, x := range xs {
			if x != nil {
				out = append(out, x)
			}
		}
	}
	switch x := e.(type) {
	case *SeqExpr:
		add(x.Items...)
	case *RangeExpr:
		add(x.Lo, x.Hi)
	case *Arith:
		add(x.L, x.R)
	case *Unary:
		add(x.X)
	case *Comparison:
		add(x.L, x.R)
	case *Logic:
		add(x.L, x.R)
	case *UnionExpr:
		add(x.L, x.R)
	case *If:
		add(x.Cond, x.Then, x.Else)
	case *FLWOR:
		for _, cl := range x.Clauses {
			switch c := cl.(type) {
			case *ForClause:
				add(c.In)
			case *LetClause:
				add(c.Val)
			}
		}
		add(x.Where)
		for _, o := range x.OrderBy {
			add(o.Key)
		}
		add(x.Return)
	case *Quantified:
		add(x.In, x.Satisfies)
	case *Path:
		add(x.Root)
		add(x.RootPreds...)
		for _, s := range x.Steps {
			add(s.Preds...)
		}
	case *FuncCall:
		add(x.Args...)
	case *ExecuteAt:
		add(x.Dest)
		if x.Call != nil {
			add(x.Call)
		}
	case *DirElem:
		for _, a := range x.Attrs {
			add(a.Value...)
		}
		add(x.Content...)
	case *Enclosed:
		add(x.X)
	case *CompElem:
		add(x.Name, x.Content)
	case *CompAttr:
		add(x.Name, x.Value)
	case *CompText:
		add(x.Val)
	case *Typeswitch:
		add(x.Operand)
		for _, c := range x.Cases {
			add(c.Ret)
		}
		add(x.Default)
	case *Cast:
		add(x.X)
	case *Castable:
		add(x.X)
	case *InstanceOf:
		add(x.X)
	case *Insert:
		add(x.Source, x.Target)
	case *Delete:
		add(x.Target)
	case *Replace:
		add(x.Target, x.Source)
	case *Rename:
		add(x.Target, x.NewName)
	}
	return out
}
