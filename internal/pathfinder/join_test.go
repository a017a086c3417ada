package pathfinder

import (
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/server"
	"xrpc/internal/store"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// The data-shipping and predicate-push-down rewrites of XMark Q7 (§5):
// the join of local persons with remote closed auctions runs at the
// issuing peer.
const (
	q7Module = `
module namespace b = "functions_b";
declare function b:Q_B1() as node()*
{ doc("auctions.xml")//closed_auction };`

	q7DataShipping = `
for $p in doc("persons.xml")//person,
    $ca in doc("xrpc://B/auctions.xml")//closed_auction
where $p/@id = $ca/buyer/@person
return <result>{$p,$ca/annotation}</result>`

	q7PredicatePushdown = `
import module namespace b="functions_b" at "http://example.org/b.xq";
for $p in doc("persons.xml")//person,
    $ca in execute at {"xrpc://B"} { b:Q_B1() }
where $p/@id = $ca/buyer/@person
return <result>{$p,$ca/annotation}</result>`
)

// TestQ7TakesHashJoin: both rewrites evaluate their where as a hash
// join — a silent fallback to every (person, auction) pair fails here —
// and agree with the interpreter.
func TestQ7TakesHashJoin(t *testing.T) {
	cfg := xmark.Config{Persons: 20, ClosedAuctions: 120, Matches: 5, AnnotationWords: 4, Seed: 7}
	reg := modules.NewRegistry()
	if err := reg.Register(q7Module, "http://example.org/b.xq"); err != nil {
		t.Fatal(err)
	}
	net := netsim.NewNetwork(0, 0)
	stB := store.New()
	if err := stB.LoadXML("auctions.xml", xmark.GenerateAuctions(cfg)); err != nil {
		t.Fatal(err)
	}
	net.Register("xrpc://B", server.New(stB, reg, server.NewNativeExecutor(interp.New(stB, reg, nil), reg)))
	stA := store.New()
	if err := stA.LoadXML("persons.xml", xmark.GeneratePersons(cfg)); err != nil {
		t.Fatal(err)
	}

	for name, query := range map[string]string{
		"data shipping": q7DataShipping, "predicate push-down": q7PredicatePushdown,
	} {
		cl := client.New(net)
		docs := &client.DocResolver{Local: stA, Client: cl}
		c, err := Compile(query, reg)
		if err != nil {
			t.Fatal(err)
		}
		ec := &ExecCtx{Docs: docs, Bulk: cl}
		got, err := c.Eval(ec, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ec.hashJoins != 1 {
			t.Errorf("%s: %d hash joins, want 1", name, ec.hashJoins)
		}
		if len(got) != cfg.Matches {
			t.Errorf("%s: %d results, want %d", name, len(got), cfg.Matches)
		}
		ic, err := interp.New(docs, reg, cl).Compile(query)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ic.Eval(nil)
		if err != nil {
			t.Fatalf("%s (interp): %v", name, err)
		}
		if g, w := xdm.SerializeSequence(got), xdm.SerializeSequence(want); g != w {
			t.Errorf("%s: engines disagree\npathfinder: %s\ninterp:     %s", name, g, w)
		}
	}
}
