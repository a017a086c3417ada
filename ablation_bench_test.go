// Ablation benchmarks for the design choices DESIGN.md calls out:
// call deduplication (δ) in the Figure 2 rule, the interpreter's two §4
// hash paths (the predicate index and the FLWOR hash join), and
// call-by-fragment message compression. Each Benchmark pair measures
// the system with the mechanism on and off.
package xrpc

import (
	"testing"

	"xrpc/internal/client"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/pathfinder"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// --- ablation 1: δ over identical bulk calls -------------------------

const invariantCallQuery = `
import module namespace f="films" at "http://x.example.org/film.xq";
for $p in (1 to 50)
return count(execute at {"xrpc://y"} {f:filmsByActor("Sean Connery")})`

func dedupEnv(b *testing.B) (*pathfinder.Compiled, *netsim.Network, *store.Store) {
	b.Helper()
	net := netsim.NewNetwork(0, 0)
	reg := modules.NewRegistry()
	film := `
module namespace film="films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor=$actor] };`
	if err := reg.Register(film, "http://x.example.org/film.xq"); err != nil {
		b.Fatal(err)
	}
	st := store.New()
	if err := st.LoadXML("filmDB.xml", xmark.GenerateFilmDB(200, nil)); err != nil {
		b.Fatal(err)
	}
	srv := server.New(st, reg, server.NewNativeExecutor(interp.New(st, reg, nil), reg))
	net.Register("xrpc://y", srv)
	compiled, err := pathfinder.Compile(invariantCallQuery, reg)
	if err != nil {
		b.Fatal(err)
	}
	return compiled, net, store.New()
}

func benchDedup(b *testing.B, noDedup bool) {
	compiled, net, local := dedupEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ec := &pathfinder.ExecCtx{Docs: local, Bulk: client.New(net), NoDedup: noDedup}
		if _, err := compiled.Eval(ec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_CallDedup_On(b *testing.B)  { benchDedup(b, false) }
func BenchmarkAblation_CallDedup_Off(b *testing.B) { benchDedup(b, true) }

// --- ablation 2: the §4 predicate hash index --------------------------

func benchPredIndex(b *testing.B, disabled bool) {
	st := store.New()
	cfg := xmark.Config{Persons: 500, Seed: 1}
	if err := st.LoadXML("persons.xml", xmark.GeneratePersons(cfg)); err != nil {
		b.Fatal(err)
	}
	benchInterp(b, st, disabled, `
for $i in (0 to 199)
let $pid := concat("person", string($i))
return count(doc("persons.xml")//person[@id=$pid])`)
}

func BenchmarkAblation_PredIndex_On(b *testing.B)  { benchPredIndex(b, false) }
func BenchmarkAblation_PredIndex_Off(b *testing.B) { benchPredIndex(b, true) }

// benchInterp times one interpreter evaluation of query over st, with
// the §4 hash paths on or, when nestedLoops is set, off.
func benchInterp(b *testing.B, st *store.Store, nestedLoops bool, query string) {
	eng := interp.New(st, nil, nil)
	eng.NestedLoops = nestedLoops
	compiled, err := eng.Compile(query)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := compiled.Eval(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// q7Store holds the XMark 0.1 persons.xml and auctions.xml of §5.
func q7Store(b *testing.B) *store.Store {
	cfg := xmark.PaperConfig(0.1)
	st := store.New()
	if err := st.LoadXML("persons.xml", xmark.GeneratePersons(cfg)); err != nil {
		b.Fatal(err)
	}
	if err := st.LoadXML("auctions.xml", xmark.GenerateAuctions(cfg)); err != nil {
		b.Fatal(err)
	}
	return st
}

// --- ablation 2b: the FLWOR hash join on the Q_B2 shape ---------------

func benchFLWORJoin(b *testing.B, nestedLoops bool) {
	benchInterp(b, q7Store(b), nestedLoops, `
for $p in doc("persons.xml")//person,
    $ca in doc("auctions.xml")//closed_auction
where $p/@id = $ca/buyer/@person
return <result>{$p, $ca/annotation}</result>`)
}

func BenchmarkAblation_FLWORJoin_On(b *testing.B)  { benchFLWORJoin(b, false) }
func BenchmarkAblation_FLWORJoin_Off(b *testing.B) { benchFLWORJoin(b, true) }

// --- ablation 2c: the predicate index on Q_B3's ./buyer/@person -------

func benchPredIndexDotPath(b *testing.B, nestedLoops bool) {
	benchInterp(b, q7Store(b), nestedLoops, `
for $p in doc("persons.xml")//person
let $pid := string($p/@id)
return doc("auctions.xml")//closed_auction[./buyer/@person=$pid]`)
}

func BenchmarkAblation_PredIndexDotPath_On(b *testing.B)  { benchPredIndexDotPath(b, false) }
func BenchmarkAblation_PredIndexDotPath_Off(b *testing.B) { benchPredIndexDotPath(b, true) }

// --- ablation 3: call-by-fragment compression --------------------------

func benchByFragment(b *testing.B, byFragment bool) {
	doc, err := xdm.ParseDocument("site.xml", xmark.GeneratePersons(xmark.Config{Persons: 100, Seed: 2}))
	if err != nil {
		b.Fatal(err)
	}
	people := xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{Name: "people"})[0]
	persons := xdm.Step(doc, xdm.AxisDescendant, xdm.NodeTest{Name: "person"})
	params := []xdm.Sequence{{people}, {persons[10]}, {persons[90]}}
	req := &soap.Request{
		Module: "m", Method: "f", Arity: 3, Location: "l",
		ByFragment: byFragment,
		Calls:      [][]xdm.Sequence{params},
	}
	b.ResetTimer()
	var bytes int
	for i := 0; i < b.N; i++ {
		msg := soap.EncodeRequest(req)
		bytes = len(msg)
		if _, err := soap.DecodeRequest(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bytes), "message-bytes")
}

func BenchmarkAblation_ByFragment_On(b *testing.B)  { benchByFragment(b, true) }
func BenchmarkAblation_ByFragment_Off(b *testing.B) { benchByFragment(b, false) }
