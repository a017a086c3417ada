package interp

import (
	"fmt"
	"strings"
	"testing"

	"xrpc/internal/store"
	"xrpc/internal/xdm"
	"xrpc/internal/xq"
)

func bigPersonStore(t *testing.T, n int) *store.Store {
	t.Helper()
	var b strings.Builder
	b.WriteString("<people>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<person id="p%d"><age>%d</age></person>`, i, 20+i%50)
	}
	b.WriteString("</people>")
	st := store.New()
	if err := st.LoadXML("people.xml", b.String()); err != nil {
		t.Fatal(err)
	}
	return st
}

// The predicate index must return exactly what row-at-a-time evaluation
// returns, across repeated probes.
func TestPredIndexMatchesNaive(t *testing.T) {
	st := bigPersonStore(t, 100)
	query := `
for $i in (0 to 99)
let $pid := concat("p", string($i))
return count(doc("people.xml")//person[@id=$pid])`
	run := func(disable bool) string {
		e := New(st, nil, nil)
		e.NestedLoops = disable
		c, err := e.Compile(query)
		if err != nil {
			t.Fatal(err)
		}
		seq, _, err := c.Eval(nil)
		if err != nil {
			t.Fatal(err)
		}
		return xdm.SerializeSequence(seq)
	}
	withIdx, naive := run(false), run(true)
	if withIdx != naive {
		t.Fatalf("index changed semantics:\nindexed: %s\nnaive:   %s", withIdx, naive)
	}
	if !strings.HasPrefix(withIdx, "1 1 1") {
		t.Errorf("result = %s", withIdx[:30])
	}
}

// Numeric probes must NOT use the string-keyed index ("07" vs 7).
func TestPredIndexNumericFallback(t *testing.T) {
	st := store.New()
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "<e k=\"0%d\"/>", i) // zero-padded untyped keys
	}
	b.WriteString("</r>")
	if err := st.LoadXML("r.xml", b.String()); err != nil {
		t.Fatal(err)
	}
	e := New(st, nil, nil)
	c, err := e.Compile(`
for $i in (1 to 20)
return count(doc("r.xml")//e[@k=$i])`)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := c.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	// untyped "01".."019" compare NUMERICALLY with integer probes
	// (1..19 hit; 20 misses) — a string-keyed index would find nothing,
	// so these hits prove the numeric fallback
	got := xdm.SerializeSequence(seq)
	want := strings.TrimSpace(strings.Repeat("1 ", 19) + "0")
	if got != want {
		t.Errorf("numeric comparison through index broke: %s", got)
	}
}

// Predicates that consult position() or the context must not be indexed.
func TestPredIndexSkipsContextDependent(t *testing.T) {
	st := bigPersonStore(t, 30)
	e := New(st, nil, nil)
	c, err := e.Compile(`count(doc("people.xml")//person[position() = last()])`)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := c.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := xdm.SerializeSequence(seq); got != "1" {
		t.Errorf("position()=last() = %s", got)
	}
}

func TestPurePathClassification(t *testing.T) {
	pure := []string{`@id`, `buyer/@person`, `name`, `./buyer/@person`, `./@id`}
	impure := []string{`../x`, `doc("d")//x`, `a[1]/b`}
	for _, src := range pure {
		e, err := xq.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		p, ok := e.(*xq.Path)
		if !ok {
			t.Fatalf("%s parsed as %T", src, e)
		}
		if !purePath(p) {
			t.Errorf("%s should be pure", src)
		}
	}
	for _, src := range impure {
		e, err := xq.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := e.(*xq.Path); ok && purePath(p) {
			t.Errorf("%s should not be pure", src)
		}
	}
}

func TestContextFreeClassification(t *testing.T) {
	free := []string{`$x`, `"s"`, `1 + 2`, `concat($a, "x")`, `doc("d")//p`}
	bound := []string{`.`, `position()`, `last()`, `string()`, `@id`, `name`}
	for _, src := range free {
		e, err := xq.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if !contextFree(e) {
			t.Errorf("%s should be context-free", src)
		}
	}
	for _, src := range bound {
		e, err := xq.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if contextFree(e) {
			t.Errorf("%s should be context-dependent", src)
		}
	}
}

func TestMoreBuiltins(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`empty(())`:                      "true",
		`empty((1))`:                     "false",
		`exists(())`:                     "false",
		`boolean((1))`:                   "true",
		`data(<a>5</a>)`:                 "5",
		`node-name(<q/>)`:                "q",
		`string(root(<a><b/></a>))`:      "",
		`trace((1,2), "label")`:          "1 2",
		`string-value(<a>x<b>y</b></a>)`: "xy",
		`substring("hello", 0)`:          "hello",
		`substring("hello", 2, 100)`:     "ello",
		`string-join((), "-")`:           "",
		`normalize-space("")`:            "",
		`sum((), 99)`:                    "99",
		`avg(())`:                        "",
		`min(())`:                        "",
		`max(())`:                        "",
		`number(())`:                     "NaN",
		`abs(-2.5)`:                      "2.5",
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestEvalOrderByMultiKey(t *testing.T) {
	e, _ := newTestEngine(t)
	got := evalStr(t, e, `
for $p in ((3, "b"), (1, "c"))
return $p`)
	_ = got
	got = evalStr(t, e, `
for $x in (3, 1, 2, 1)
order by $x, $x * -1 descending
return $x`)
	if got != "1 1 2 3" {
		t.Errorf("multi-key order = %q", got)
	}
}

func TestEvalInstanceOfMore(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`"x" instance of xs:string`:                     "true",
		`"x" instance of xs:integer`:                    "false",
		`(1,2) instance of xs:integer`:                  "false",
		`() instance of xs:integer?`:                    "true",
		`3.5 instance of xs:decimal`:                    "false", // 3.5 parses as decimal literal -> Decimal: true actually
		`<a/> instance of node()`:                       "true",
		`<a/> instance of document-node()`:              "false",
		`doc("filmDB.xml") instance of document-node()`: "true",
		`(<a/>, 1) instance of item()+`:                 "true",
	}
	// fix the decimal expectation: 3.5 IS xs:decimal
	cases[`3.5 instance of xs:decimal`] = "true"
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

func TestUpdateListDescribe(t *testing.T) {
	e, st := newTestEngine(t)
	_ = st
	c, err := e.Compile(`(
  insert node <x/> into doc("filmDB.xml")/films,
  delete node doc("filmDB.xml")//film[1],
  put(<y/>, "y.xml"))`)
	if err != nil {
		t.Fatal(err)
	}
	_, pul, err := c.Eval(&EvalOptions{CollectUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	desc := pul.Describe()
	for _, want := range []string{"insertInto", "delete", "put", "filmDB.xml", `uri="y.xml"`} {
		if !strings.Contains(desc, want) {
			t.Errorf("describe missing %q:\n%s", want, desc)
		}
	}
	// kind names
	for k := PrimInsertInto; k <= PrimPut; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestSequenceTypeOfDecimalLiteral(t *testing.T) {
	e, _ := newTestEngine(t)
	if got := evalStr(t, e, `3.5 instance of xs:decimal`); got != "true" {
		t.Errorf("3.5 instance of xs:decimal = %s", got)
	}
}

func TestEvalTypeswitch(t *testing.T) {
	e, _ := newTestEngine(t)
	cases := map[string]string{
		`typeswitch (5) case xs:integer return "int" default return "other"`:                                    "int",
		`typeswitch ("x") case xs:integer return "int" case xs:string return "str" default return "other"`:      "str",
		`typeswitch (<a/>) case element() return "elem" default return "other"`:                                 "elem",
		`typeswitch (3.5) case xs:integer return "int" default return "dec"`:                                    "dec",
		`typeswitch ((1,2)) case xs:integer return "one" case xs:integer+ return "many" default return "other"`: "many",
		`typeswitch (()) case empty-sequence() return "empty" default return "other"`:                           "empty",
		`typeswitch (7) case $i as xs:integer return $i * 2 default return 0`:                                   "14",
		`typeswitch ("q") case xs:integer return 1 default $d return concat($d, "!")`:                           "q!",
		`typeswitch (doc("filmDB.xml")) case document-node() return "doc" default return "no"`:                  "doc",
	}
	for q, want := range cases {
		if got := evalStr(t, e, q); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}
