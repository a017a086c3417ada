package interp

import (
	"errors"
	"testing"

	"xrpc/internal/store"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// outcome is one evaluation's serialized result or error code, and the
// hash paths it took.
type outcome struct {
	result, errCode string
	hash            HashCounts
}

func evalBoth(t *testing.T, st *store.Store, query string) (hashed, nested outcome) {
	t.Helper()
	run := func(nestedLoops bool) outcome {
		e := New(st, nil, nil)
		e.NestedLoops = nestedLoops
		c, err := e.Compile(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		var o outcome
		seq, _, err := c.Eval(&EvalOptions{Counts: &o.hash})
		var xe *xdm.Error
		switch {
		case errors.As(err, &xe):
			o.errCode = xe.Code
		case err != nil:
			o.errCode = err.Error()
		default:
			o.result = xdm.SerializeSequence(seq)
		}
		return o
	}
	return run(false), run(true)
}

// The FLWOR hash join returns what the nested loop returns, in the same
// order and with the same errors, and takes the hash path exactly when
// the rules say it may.
func TestFLWORJoinMatchesNestedLoop(t *testing.T) {
	_, st := newTestEngine(t)
	const films = `doc("filmDB.xml")//film`
	cases := []struct {
		query  string
		hashed bool
	}{
		// the Q_B2 shape, keys on either side of the =
		{`for $f in ` + films + `, $g in ` + films + ` where $f/actor = $g/actor return concat($f/name, "/", $g/name)`, true},
		{`for $f in ` + films + `, $g in ` + films + ` where $g/actor = $f/actor return concat($f/name, "/", $g/name)`, true},
		// other conjuncts, order by and at variables run over the pairs
		{`for $f at $i in ` + films + `, $g at $j in ` + films + ` where $f/actor = $g/actor and $i != $j order by $g/name descending return ($i, $j)`, true},
		// multi-valued keys: each matching pair once, in b order
		{`for $a in ("x", "y"), $b in (("y", "x"), "x", "z") where ($a, "x") = $b return concat($a, $b)`, true},
		{`for $a in ("x", "y"), $b in ("y", "x", "z") where ($a, "x") = $b return concat($a, $b)`, true},
		// empty sides never evaluate the keys, which would raise errors
		{`for $a in (), $b in (1, 2) where $a/x = $b return $b`, true},
		{`for $a in (1, 2), $b in () where $a/x = $b return $a`, true},
		// numeric keys compare numerically: fall back to the nested loop
		{`for $a in ("1", "01"), $b in (<k>1</k>, <k>01</k>) where $b = number($a) return concat($a, $b)`, false},
		{`for $a in (1, 2), $b in ("1", "2") where $a = $b return $a`, false},
		// a key that raises an error: the nested loop's error
		{`for $a in (1, 2), $b in ` + films + ` where $a/x = $b/name return $a`, false},
		// a where that is not an equality, or a B over $a
		{`for $a in ("x", "y"), $b in ("y", "x") where $a != $b return concat($a, $b)`, false},
		{`for $a in ("x", "y"), $b in ($a, "x") where $a = $b return concat($a, $b)`, false},
		// B constructs nodes: each evaluation has new identities
		{`for $a in ("x", "y"), $b in (<k>x</k>, <k>y</k>) where $a = $b return $b`, false},
	}
	for _, c := range cases {
		hashed, nested := evalBoth(t, st, c.query)
		if hashed.result != nested.result || hashed.errCode != nested.errCode {
			t.Errorf("%s\nhashed: %q %s\nnested: %q %s", c.query, hashed.result, hashed.errCode, nested.result, nested.errCode)
		}
		if got := hashed.hash.FLWORJoins > 0; got != c.hashed {
			t.Errorf("%s: hash join taken = %v, want %v", c.query, got, c.hashed)
		}
		if nested.hash != (HashCounts{}) {
			t.Errorf("%s: NestedLoops took hash paths %+v", c.query, nested.hash)
		}
	}
}

// The predicate index is reused only for an identical candidate
// sequence. Two sequences sharing their first item, last item and length
// once shared an index: $s for $k = 6 was filtered with the index built
// for $k = 5, which lacks person4.
func TestPredIndexMemoNeedsIdenticalCandidates(t *testing.T) {
	st := store.New()
	if err := st.LoadXML("persons.xml", xmark.GeneratePersons(xmark.Config{Persons: 40, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	hashed, nested := evalBoth(t, st, `
let $all := doc("persons.xml")//person
for $k in (5, 6)
let $s := $all[position() != $k]
return <r>{string($s[@id = "person4"]/@id)}</r>`)
	if hashed.result != nested.result {
		t.Fatalf("indexed: %s\nnested:  %s", hashed.result, nested.result)
	}
	if want := "<r/><r>person4</r>"; nested.result != want {
		t.Errorf("nested loop = %s, want %s", nested.result, want)
	}
	if hashed.hash.PredIndex != 2 {
		t.Errorf("%d predicates answered from an index, want 2", hashed.hash.PredIndex)
	}
}
