package pathfinder

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xrpc/internal/interp"
	"xrpc/internal/xdm"
)

// qgen generates random queries from the subset both engines support.
// Generated queries avoid runtime errors by construction (no division,
// small integers, bound variables only).
type qgen struct {
	r     *rand.Rand
	vars  []string
	nvars int
}

func (g *qgen) pick(weights ...int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	n := g.r.Intn(total)
	for i, w := range weights {
		if n < w {
			return i
		}
		n -= w
	}
	return 0
}

// expr produces an arbitrary expression (any sequence).
func (g *qgen) expr(depth int) string {
	if depth <= 0 {
		return g.atom()
	}
	switch g.pick(3, 2, 2, 2, 2, 1, 1, 1, 2, 1) {
	case 0:
		return g.atom()
	case 1: // arithmetic
		return fmt.Sprintf("(%s %s %s)", g.num(depth-1), []string{"+", "-", "*"}[g.r.Intn(3)], g.num(depth-1))
	case 2: // sequence
		return fmt.Sprintf("(%s, %s)", g.expr(depth-1), g.expr(depth-1))
	case 3: // range
		lo := g.r.Intn(4)
		return fmt.Sprintf("(%d to %d)", lo, lo+g.r.Intn(4))
	case 4: // FLWOR
		return g.flwor(depth - 1)
	case 5: // if
		return fmt.Sprintf("(if (%s) then %s else %s)", g.boolean(depth-1), g.expr(depth-1), g.expr(depth-1))
	case 6: // aggregate
		return fmt.Sprintf("%s(%s)", []string{"count", "sum"}[g.r.Intn(2)], g.numseq(depth-1))
	case 7: // path over the film db
		return g.path()
	case 8: // string function
		return fmt.Sprintf("concat(%s, %s)", g.str(depth-1), g.str(depth-1))
	default: // two for clauses joined by their where
		return "(" + g.join() + ")"
	}
}

// joinSource is an in-expression for a join: node and atomic sequences
// whose keys are strings, untyped values, numbers, or a mix.
type joinSource struct {
	in   string
	keys []string // key expressions over the bound variable, "%s" = $var
}

var joinSources = []joinSource{
	{`doc("filmDB.xml")//film`, []string{"%s/actor", "%s/name", "%s/*", "%s/nothing", "string(%s/actor)"}},
	{`doc("filmDB.xml")//actor`, []string{"%s", "string(%s)", "%s/text()"}},
	{`("Sean Connery", "The Rock", "x", "Sean Connery")`, []string{"%s", "(%s, \"x\")", "%s/name"}},
	{`(1 to 3)`, []string{"%s", "string(%s)"}},
	{`(<k>2</k>, <k>3</k>, <k>Goldfinger</k>)`, []string{"%s", "%s/text()"}},
	{`("2", 3, "Green Card")`, []string{"%s"}},
	{`()`, []string{"%s"}},
}

// join produces `for $a in A, $b in B where ka = kb [and …] return R`:
// independent and dependent inner clauses, multi-valued, empty,
// numeric and untyped keys, keys that raise errors, comparisons other
// than `=`, `at` variables, and the join nested inside an outer for.
// Key types that general `=` cannot compare raise the same error in
// both engines.
func (g *qgen) join() string {
	var sb strings.Builder
	outer := ""
	if g.r.Intn(4) == 0 {
		outer = g.freshVar()
		fmt.Fprintf(&sb, "for $%s in (\"Sean Connery\", \"x\") ", outer)
		if g.r.Intn(2) == 0 {
			sb.WriteString("return for ")
		} else {
			sb.WriteString(", ")
		}
	} else {
		sb.WriteString("for ")
	}
	sa, sbSrc := joinSources[g.r.Intn(len(joinSources))], joinSources[g.r.Intn(len(joinSources))]
	a := g.freshVar()
	posA := ""
	if g.r.Intn(3) == 0 {
		posA = g.freshVar()
		fmt.Fprintf(&sb, "$%s at $%s in %s, ", a, posA, sa.in)
	} else {
		fmt.Fprintf(&sb, "$%s in %s, ", a, sa.in)
	}
	b := g.freshVar()
	inB := sbSrc.in
	if g.r.Intn(5) == 0 { // dependent: must not become a hash join
		inB = fmt.Sprintf("($%s, %s)", a, sbSrc.in)
	}
	fmt.Fprintf(&sb, "$%s in %s ", b, inB)
	ka := fmt.Sprintf(sa.keys[g.r.Intn(len(sa.keys))], "$"+a)
	kb := fmt.Sprintf(sbSrc.keys[g.r.Intn(len(sbSrc.keys))], "$"+b)
	if g.r.Intn(2) == 0 {
		ka, kb = kb, ka
	}
	op := "="
	if g.r.Intn(8) == 0 { // near miss: not an equality
		op = []string{"!=", "<"}[g.r.Intn(2)]
	}
	fmt.Fprintf(&sb, "where %s %s %s ", ka, op, kb)
	switch g.r.Intn(4) {
	case 0:
		fmt.Fprintf(&sb, "and exists($%s) ", b)
	case 1:
		if posA != "" {
			fmt.Fprintf(&sb, "and $%s > 1 ", posA)
		} else if outer != "" {
			fmt.Fprintf(&sb, "and string($%s) = $%s ", b, outer)
		}
	}
	rets := []string{
		fmt.Sprintf("($%s, $%s)", a, b),
		fmt.Sprintf("<r>{$%s}{$%s}</r>", a, b),
		fmt.Sprintf("concat(string($%s), \"|\", string($%s))", a, b),
	}
	if posA != "" {
		rets = append(rets, fmt.Sprintf("($%s, $%s)", posA, b))
	}
	if outer != "" {
		rets = append(rets, fmt.Sprintf("($%s, $%s)", outer, b))
	}
	fmt.Fprintf(&sb, "return %s", rets[g.r.Intn(len(rets))])
	g.dropVar() // b
	if posA != "" {
		g.dropVar()
	}
	g.dropVar() // a
	if outer != "" {
		g.dropVar()
	}
	return sb.String()
}

// num produces a singleton numeric expression.
func (g *qgen) num(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if len(g.vars) > 0 && g.r.Intn(3) == 0 {
			return "$" + g.vars[g.r.Intn(len(g.vars))]
		}
		return fmt.Sprintf("%d", g.r.Intn(7))
	}
	switch g.pick(3, 2, 1) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", g.num(depth-1), []string{"+", "-", "*"}[g.r.Intn(3)], g.num(depth-1))
	case 1:
		return fmt.Sprintf("count(%s)", g.expr(depth-1))
	default:
		return fmt.Sprintf("sum(%s)", g.numseq(depth-1))
	}
}

// numseq produces a sequence of numbers.
func (g *qgen) numseq(depth int) string {
	if depth <= 0 {
		return fmt.Sprintf("(%d, %d)", g.r.Intn(5), g.r.Intn(5))
	}
	switch g.pick(2, 2, 1) {
	case 0:
		lo := g.r.Intn(3)
		return fmt.Sprintf("(%d to %d)", lo, lo+g.r.Intn(4))
	case 1:
		return fmt.Sprintf("(%s, %s)", g.num(depth-1), g.numseq(depth-1))
	default:
		in := g.numseq(depth - 1)
		v := g.freshVar()
		inner := fmt.Sprintf("for $%s in %s return $%s * 2", v, in, v)
		g.dropVar()
		return "(" + inner + ")"
	}
}

// str produces a singleton string expression.
func (g *qgen) str(depth int) string {
	words := []string{`"a"`, `"bc"`, `"xy z"`, `""`}
	if depth <= 0 || g.r.Intn(2) == 0 {
		return words[g.r.Intn(len(words))]
	}
	return fmt.Sprintf("concat(%s, %s)", g.str(depth-1), g.str(depth-1))
}

// boolean produces a boolean expression.
func (g *qgen) boolean(depth int) string {
	if depth <= 0 {
		return []string{"true()", "false()", "1 < 2", "2 eq 3"}[g.r.Intn(4)]
	}
	switch g.pick(3, 2, 2, 1) {
	case 0:
		op := []string{"=", "<", "<=", ">", "!="}[g.r.Intn(5)]
		return fmt.Sprintf("(%s %s %s)", g.num(depth-1), op, g.num(depth-1))
	case 1:
		return fmt.Sprintf("(%s %s %s)", g.boolean(depth-1), []string{"and", "or"}[g.r.Intn(2)], g.boolean(depth-1))
	case 2:
		return fmt.Sprintf("%s(%s)", []string{"exists", "empty", "not"}[g.r.Intn(3)], g.expr(depth-1))
	default:
		in := g.numseq(depth - 1)
		v := g.freshVar()
		out := fmt.Sprintf("(some $%s in %s satisfies $%s > 1)", v, in, v)
		g.dropVar()
		return out
	}
}

func (g *qgen) flwor(depth int) string {
	in := g.numseq(depth) // generate before binding: $v not in scope here
	v := g.freshVar()
	var sb strings.Builder
	fmt.Fprintf(&sb, "(for $%s in %s ", v, in)
	if g.r.Intn(2) == 0 {
		fmt.Fprintf(&sb, "where %s ", g.boolean(depth))
	}
	fmt.Fprintf(&sb, "return %s)", g.expr(depth))
	g.dropVar()
	return sb.String()
}

func (g *qgen) atom() string {
	switch g.pick(3, 2, 1, 1) {
	case 0:
		if len(g.vars) > 0 && g.r.Intn(2) == 0 {
			return "$" + g.vars[g.r.Intn(len(g.vars))]
		}
		return fmt.Sprintf("%d", g.r.Intn(9))
	case 1:
		return []string{`"s"`, `"t u"`, "3.5", "()"}[g.r.Intn(4)]
	case 2:
		return "true()"
	default:
		return g.path()
	}
}

func (g *qgen) path() string {
	paths := []string{
		`doc("filmDB.xml")//film/name`,
		`doc("filmDB.xml")//actor`,
		`count(doc("filmDB.xml")//film)`,
		`doc("filmDB.xml")/films/film[1]/name`,
		`doc("filmDB.xml")//name[../actor="Sean Connery"]`,
		`string((doc("filmDB.xml")//actor)[1])`,
		`doc("filmDB.xml")//film/*[1]`,
		`doc("filmDB.xml")//film/*[last()]`,
		`doc("filmDB.xml")//actor/../name`,
		`doc("filmDB.xml")//name/following-sibling::*`,
		`doc("filmDB.xml")//film/*/parent::*[1]`,
	}
	return paths[g.r.Intn(len(paths))]
}

func (g *qgen) freshVar() string {
	g.nvars++
	v := fmt.Sprintf("v%d", g.nvars)
	g.vars = append(g.vars, v)
	return v
}

func (g *qgen) dropVar() {
	g.vars = g.vars[:len(g.vars)-1]
}

// TestDifferentialEngines generates hundreds of random queries and
// requires the loop-lifting engine and the interpreter to agree on every
// one of them (same result or both erroring).
func TestDifferentialEngines(t *testing.T) {
	f := newFixture(t)
	refEngine := nestedLoopEngine(f)
	const n = 400
	skipped := 0
	for seed := 0; seed < n; seed++ {
		g := &qgen{r: rand.New(rand.NewSource(int64(seed)))}
		query := g.expr(4)

		pfc, pfErr := Compile(query, f.reg)
		var pfSeq xdm.Sequence
		if pfErr == nil {
			pfSeq, pfErr = pfc.Eval(&ExecCtx{Docs: f.st}, nil)
		}
		if pfErr != nil && strings.Contains(pfErr.Error(), "not supported") {
			skipped++
			continue
		}
		ic, iErr := refEngine.Compile(query)
		var iSeq xdm.Sequence
		if iErr == nil {
			iSeq, _, iErr = ic.Eval(nil)
		}
		switch {
		case pfErr == nil && iErr == nil:
			got, want := xdm.SerializeSequence(pfSeq), xdm.SerializeSequence(iSeq)
			if got != want {
				t.Fatalf("seed %d: engines disagree\nquery: %s\npathfinder: %s\ninterp:     %s",
					seed, query, got, want)
			}
		case pfErr != nil && iErr != nil:
			// both reject: fine
		default:
			t.Fatalf("seed %d: one engine errored\nquery: %s\npathfinder err: %v\ninterp err:     %v",
				seed, query, pfErr, iErr)
		}
	}
	if skipped > n/4 {
		t.Errorf("too many generated queries unsupported by pathfinder: %d/%d", skipped, n)
	}
}

// nestedLoopEngine is the reference interpreter: every join runs as
// the nested loop the query spells out.
func nestedLoopEngine(f *fixture) *interp.Engine {
	e := interp.New(f.st, f.reg, nil)
	e.NestedLoops = true
	return e
}

// TestDifferentialJoins runs the join shapes on three engines:
// pathfinder, the default interpreter and the nested-loop interpreter.
// Results must agree byte for byte and errors must carry the same code,
// whether a pair is evaluated as a hash join or falls back to every
// pair. Both hashing engines must take the hash join on at least a
// quarter of the shapes.
func TestDifferentialJoins(t *testing.T) {
	f := newFixture(t)
	hashed, nested := interp.New(f.st, f.reg, nil), nestedLoopEngine(f)
	evalInterp := func(e *interp.Engine, query string, counts *interp.HashCounts) (xdm.Sequence, error) {
		c, err := e.Compile(query)
		if err != nil {
			return nil, err
		}
		seq, _, err := c.Eval(&interp.EvalOptions{Counts: counts})
		return seq, err
	}
	pfJoined, interpJoined := 0, 0
	for seed := 0; seed < 1000; seed++ {
		g := &qgen{r: rand.New(rand.NewSource(int64(seed)))}
		query := g.join()
		ec := &ExecCtx{Docs: f.st}
		pfc, pfErr := Compile(query, f.reg)
		var pfSeq xdm.Sequence
		if pfErr == nil {
			pfSeq, pfErr = pfc.Eval(ec, nil)
		}
		pfJoined += ec.hashJoins
		var counts interp.HashCounts
		hSeq, hErr := evalInterp(hashed, query, &counts)
		if counts.FLWORJoins > 0 {
			interpJoined++
		}
		nSeq, nErr := evalInterp(nested, query, nil)
		agree(t, seed, query, "pathfinder", pfSeq, pfErr, nSeq, nErr)
		agree(t, seed, query, "hash-join interp", hSeq, hErr, nSeq, nErr)
	}
	if pfJoined < 250 {
		t.Errorf("only %d of 1000 generated joins ran as pathfinder hash joins", pfJoined)
	}
	if interpJoined < 250 {
		t.Errorf("only %d of 1000 generated joins ran as interpreter hash joins", interpJoined)
	}
}

// agree fails the test unless an engine's outcome matches the
// nested-loop interpreter's: the same serialized result, or errors with
// the same code.
func agree(t *testing.T, seed int, query, name string, seq xdm.Sequence, err error, want xdm.Sequence, wantErr error) {
	t.Helper()
	switch {
	case err == nil && wantErr == nil:
		if got, w := xdm.SerializeSequence(seq), xdm.SerializeSequence(want); got != w {
			t.Fatalf("seed %d: %s disagrees with the nested loop\nquery: %s\n%s: %s\nnested: %s",
				seed, name, query, name, got, w)
		}
	case err != nil && wantErr != nil:
		if errCode(err) != errCode(wantErr) {
			t.Fatalf("seed %d: error codes differ\nquery: %s\n%s err: %v\nnested err: %v",
				seed, query, name, err, wantErr)
		}
	default:
		t.Fatalf("seed %d: one engine errored\nquery: %s\n%s err: %v\nnested err: %v",
			seed, query, name, err, wantErr)
	}
}

func errCode(err error) string {
	var xe *xdm.Error
	if errors.As(err, &xe) {
		return xe.Code
	}
	return err.Error()
}
