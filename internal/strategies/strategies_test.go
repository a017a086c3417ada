package strategies

import (
	"fmt"
	"testing"

	"xrpc/internal/interp"
	"xrpc/internal/netsim"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

func testConfig() xmark.Config {
	return xmark.Config{
		Persons:         25,
		ClosedAuctions:  100,
		Matches:         6,
		AnnotationWords: 10,
		Seed:            42,
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	cfg := testConfig()
	var counts []int
	var results []xdm.Sequence
	for _, spec := range []struct{ name, query string }{
		{"data shipping", QDataShipping},
		{"predicate push-down", QPredicatePushdown},
		{"execution relocation", QExecutionRelocation},
		{"distributed semi-join", QDistributedSemiJoin},
	} {
		env, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, seq, err := env.RunSeq(spec.name, spec.query)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		counts = append(counts, len(seq))
		results = append(results, seq)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Errorf("strategy %d returned %d rows, strategy 0 returned %d", i, counts[i], counts[0])
		}
	}
	if counts[0] != 6 {
		t.Errorf("join produced %d matches, want 6 (the paper's selectivity)", counts[0])
	}
	// every result row is a <result> with a person and an annotation
	for _, seq := range results {
		for _, it := range seq {
			n, ok := it.(*xdm.Node)
			if !ok || n.Name != "result" {
				t.Fatalf("result item = %v", it)
			}
			persons := xdm.Step(n, xdm.AxisChild, xdm.NodeTest{Name: "person"})
			annos := xdm.Step(n, xdm.AxisChild, xdm.NodeTest{Name: "annotation"})
			if len(persons) != 1 || len(annos) != 1 {
				t.Fatalf("result shape: %d persons, %d annotations", len(persons), len(annos))
			}
		}
	}
}

// TestPeerBTakesHashPaths: the wrapped peer B runs both Q7 joins the
// way §4 says Saxon does, on hash tables. Relocation's Q_B2 is one FLWOR
// hash join, and each of the semi-join's per-person Q_B3 calls is
// answered from the predicate index. Counts, not times, prove it; the
// four rewrites still return byte-identical answers.
func TestPeerBTakesHashPaths(t *testing.T) {
	cfg := testConfig()
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for i, spec := range []struct {
		name, query string
		hash        interp.HashCounts
	}{
		{"data shipping", QDataShipping, interp.HashCounts{}},
		{"predicate push-down", QPredicatePushdown, interp.HashCounts{}},
		{"execution relocation", QExecutionRelocation, interp.HashCounts{FLWORJoins: 1}},
		{"distributed semi-join", QDistributedSemiJoin, interp.HashCounts{PredIndex: cfg.Persons}},
	} {
		env.ServerB.ResetStats()
		_, seq, err := env.RunSeq(spec.name, spec.query)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		got := xdm.SerializeSequence(seq)
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("%s: answer differs from data shipping's\ngot:  %.200s\nwant: %.200s", spec.name, got, want)
		}
		if h := env.ServerB.LastStats.Hash; h != spec.hash {
			t.Errorf("%s: peer B took hash paths %+v, want %+v", spec.name, h, spec.hash)
		}
	}
}

func TestSemiJoinIsSingleBulkRequest(t *testing.T) {
	env, err := NewEnv(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := env.Run("distributed semi-join", QDistributedSemiJoin)
	if err != nil {
		t.Fatal(err)
	}
	// 25 persons probe B — but loop-lifting folds them into ONE bulk RPC
	if r.Requests != 1 {
		t.Errorf("semi-join sent %d requests to B, want 1 (Bulk RPC)", r.Requests)
	}
}

func TestDataShippingMovesMostBytes(t *testing.T) {
	env, err := NewEnv(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ship, err := env.Run("data shipping", QDataShipping)
	if err != nil {
		t.Fatal(err)
	}
	env2, err := NewEnv(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	semi, err := env2.Run("distributed semi-join", QDistributedSemiJoin)
	if err != nil {
		t.Fatal(err)
	}
	// Table 4's qualitative claim: the semi-join incurs the least data
	// shipping
	if semi.BytesShipped >= ship.BytesShipped {
		t.Errorf("semi-join shipped %d bytes >= data shipping %d bytes",
			semi.BytesShipped, ship.BytesShipped)
	}
}

func TestRunAllOrder(t *testing.T) {
	env, err := NewEnv(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	results, err := env.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"data shipping", "predicate push-down", "execution relocation", "distributed semi-join"}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Strategy != want[i] {
			t.Errorf("result %d = %s, want %s", i, r.Strategy, want[i])
		}
		if r.Rows != 6 {
			t.Errorf("%s: %d rows, want 6", r.Strategy, r.Rows)
		}
	}
}

func TestGeneratorSelectivity(t *testing.T) {
	cfg := testConfig()
	persons := xmark.GeneratePersons(cfg)
	auctions := xmark.GenerateAuctions(cfg)
	pd, err := xdm.ParseDocument("p", persons)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := xdm.ParseDocument("a", auctions)
	if err != nil {
		t.Fatal(err)
	}
	pNodes := xdm.Step(pd, xdm.AxisDescendant, xdm.NodeTest{Name: "person"})
	if len(pNodes) != cfg.Persons {
		t.Errorf("persons = %d, want %d", len(pNodes), cfg.Persons)
	}
	aNodes := xdm.Step(ad, xdm.AxisDescendant, xdm.NodeTest{Name: "closed_auction"})
	if len(aNodes) != cfg.ClosedAuctions {
		t.Errorf("auctions = %d, want %d", len(aNodes), cfg.ClosedAuctions)
	}
	// count actual join matches
	ids := map[string]bool{}
	for _, p := range pNodes {
		id, _ := p.Attr("id")
		ids[id] = true
	}
	matches := 0
	for _, a := range aNodes {
		buyers := xdm.Step(a, xdm.AxisChild, xdm.NodeTest{Name: "buyer"})
		if len(buyers) != 1 {
			t.Fatalf("auction has %d buyers", len(buyers))
		}
		ref, _ := buyers[0].Attr("person")
		if ids[ref] {
			matches++
		}
	}
	if matches != cfg.Matches {
		t.Errorf("join matches = %d, want %d", matches, cfg.Matches)
	}
	// deterministic: same seed, same output
	if xmark.GeneratePersons(cfg) != persons {
		t.Error("persons generation is not deterministic")
	}
}

func TestShardedSemiJoinAgreesWithUnsharded(t *testing.T) {
	cfg := testConfig()
	baselineEnv, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, baseSeq, err := baselineEnv.RunSeq("distributed semi-join", QDistributedSemiJoin)
	if err != nil {
		t.Fatal(err)
	}
	want := xdm.SerializeSequence(baseSeq)
	if want == "" {
		t.Fatal("baseline semi-join returned nothing")
	}
	for _, shards := range []int{1, 2, 4} {
		env, err := NewShardedEnv(cfg, shards, 1, netsim.NewNetwork(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		res, seq, err := env.RunSemiJoin()
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if got := xdm.SerializeSequence(seq); got != want {
			t.Fatalf("%d shards: sharded semi-join result differs from two-peer baseline\ngot:  %.200s\nwant: %.200s", shards, got, want)
		}
		// loop-lifting + scatter: exactly one bulk request per shard
		if res.Requests != int64(shards) {
			t.Fatalf("%d shards: %d requests served, want %d (one scattered bulk per shard)",
				shards, res.Requests, shards)
		}
	}
}

func TestSemiJoinSidesAgree(t *testing.T) {
	cfg := testConfig()
	for _, shards := range []int{1, 2, 4} {
		env, err := NewShardedEnv(cfg, shards, 1, netsim.NewNetwork(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		_, keysSeq, err := env.RunSemiJoin()
		if err != nil {
			t.Fatalf("%d shards, ship keys: %v", shards, err)
		}
		dataRes, dataSeq, err := env.RunSemiJoinData()
		if err != nil {
			t.Fatalf("%d shards, ship data: %v", shards, err)
		}
		if got, want := xdm.SerializeSequence(dataSeq), xdm.SerializeSequence(keysSeq); got != want {
			t.Fatalf("%d shards: data-side result differs from keys-side\ngot:  %.200s\nwant: %.200s",
				shards, got, want)
		}
		// the loop-invariant Q_B1() broadcast dedupes to one scattered
		// bulk request: one request per shard, independent of persons
		if dataRes.Requests != int64(shards) {
			t.Fatalf("%d shards: data side served %d requests, want %d",
				shards, dataRes.Requests, shards)
		}
	}
}

func TestSemiJoinAutoShipsSmallerSide(t *testing.T) {
	// few short probe keys against many annotated auctions: keys ship
	small, err := NewShardedEnv(testConfig(), 2, 1, netsim.NewNetwork(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	choice := small.ChooseSemiJoinSide()
	if !choice.ShipKeys {
		t.Fatalf("probe side smaller but choice = ship data (keys %.2g, data %.2g)",
			choice.EstKeys, choice.EstData)
	}
	res, seq, got, err := small.RunSemiJoinAuto()
	if err != nil {
		t.Fatal(err)
	}
	if got != choice || res == nil || len(seq) == 0 {
		t.Fatalf("auto run: choice %+v, res %v, %d rows", got, res, len(seq))
	}

	// many probe keys against a tiny auction side: the data ships
	bigProbe := xmark.Config{Persons: 400, ClosedAuctions: 3, Matches: 2, AnnotationWords: 5, Seed: 7}
	flipped, err := NewShardedEnv(bigProbe, 2, 1, netsim.NewNetwork(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if c := flipped.ChooseSemiJoinSide(); c.ShipKeys {
		t.Fatalf("data side smaller but choice = ship keys (keys %.2g, data %.2g)",
			c.EstKeys, c.EstData)
	}
	_, keysSeq, err := flipped.RunSemiJoin()
	if err != nil {
		t.Fatal(err)
	}
	_, autoSeq, c, err := flipped.RunSemiJoinAuto()
	if err != nil {
		t.Fatal(err)
	}
	if c.ShipKeys {
		t.Fatal("auto run shipped keys for the flipped sides")
	}
	if xdm.SerializeSequence(autoSeq) != xdm.SerializeSequence(keysSeq) {
		t.Fatal("auto (data side) result differs from keys side")
	}
}

func TestShardedSemiJoinSurvivesPrimaryFailure(t *testing.T) {
	cfg := testConfig()
	net := netsim.NewNetwork(0, 0)
	env, err := NewShardedEnv(cfg, 3, 2, net)
	if err != nil {
		t.Fatal(err)
	}
	_, seq, err := env.RunSemiJoin()
	if err != nil {
		t.Fatal(err)
	}
	want := xdm.SerializeSequence(seq)
	// take down one primary; the replica must answer identically
	net.Register(env.Dep.Table.Primary(1), netsim.HandlerFunc(
		func(path string, body []byte) ([]byte, error) {
			return nil, fmt.Errorf("connection refused")
		}))
	_, seq, err = env.RunSemiJoin()
	if err != nil {
		t.Fatal(err)
	}
	if got := xdm.SerializeSequence(seq); got != want {
		t.Fatal("result changed after failover to replica")
	}
}
