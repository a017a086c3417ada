package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"xrpc/internal/bench"
	"xrpc/internal/soap"
	"xrpc/internal/strategies"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

const (
	// personsScale is the XMark scale of probe and write-mix: 1,000
	// persons on 4 shards.
	personsScale = 4
	// scanScale is the XMark scale of scan: 975 closed auctions (~1.1 MB).
	scanScale = 0.2

	probeCalls = 16
	// probeBroadcastShare of probe's ops are a personsIn read, which
	// is broadcast, so that the merged-result cache serves a share of
	// the traffic.
	probeBroadcastShare = 0.125
	probeResultBytes    = 2 << 20
	probeWarmOps        = 300

	mixReadCalls  = 4
	mixWriteShare = 0.2
	mixWarmOps    = 200
)

// probeModule is bench.FunctionsP plus personsIn, a read the planner
// cannot route (it selects on an element, not on the partition key),
// so it is broadcast and the merged-result cache serves its repeats.
const probeModule = bench.FunctionsP + `
declare function p:personsIn($city as xs:string) as node()*
{ doc("persons.xml")//person[address/city = $city] };`

func init() {
	// planner routing, both cache tiers (tier 1 hitting about half the
	// time) and per-request overhead; the issuing engine and the WAL
	// sit idle
	register(&workload{
		name:    "probe",
		clients: clusterClients,
		setup:   setupProbe,
	})
	// the streamed shard-order merge and SOAP encode/decode carry
	// volume; nothing can be pruned and no cache serves
	register(&workload{
		name:    "scan",
		clients: clusterClients,
		setup:   setupScan,
	})
	// the only workload where 2PC and the WAL run and where commits
	// fence the caches; reads check read-your-writes
	register(&workload{
		name:    "write-mix",
		clients: clusterClients,
		setup:   setupWriteMix,
	})
}

func personID(i int) string { return xmark.PersonID(i) }

func personsDocs(seed int64) map[string]string {
	cfg := xmark.PaperConfig(personsScale)
	cfg.Seed = seed
	return map[string]string{"persons.xml": xmark.GeneratePersons(cfg)}
}

func personsCount() int { return xmark.PaperConfig(personsScale).Persons }

// ------------------------------------------------------------- probe

// probeRef is what probe's answers are checked against: the unsharded
// getPerson answer of every person and the unsharded personsIn response
// of every city.
type probeRef struct {
	persons *framed
	cities  []string
	byCity  [][]byte
}

type probeInst struct {
	*clusterInst
	ref *probeRef
}

func setupProbe(seed int64, _ string, tr *tracer) (instance, error) {
	// each shard's tier-1 cache holds half of its persons: with keys
	// drawn uniformly about half the calls hit and half execute. The
	// tier-2 cache holds every city's answer (about 40 kB each) with
	// room to spare.
	o := deployOpts{docs: personsDocs(seed), module: probeModule, atHint: pModuleAt, caches: true,
		respEntries: personsCount() / clusterShards / 2, resultBytes: probeResultBytes}
	ref, err := reference(fmt.Sprintf("probe-%d", seed), func() (*probeRef, error) { return probeBaseline(o) })
	if err != nil {
		return nil, err
	}
	ci, err := deployCluster(o, tr)
	if err != nil {
		return nil, err
	}
	p := &probeInst{clusterInst: ci, ref: ref}
	if err := warmUp(p, clusterClients, seed, probeWarmOps); err != nil {
		ci.close()
		return nil, err
	}
	return p, nil
}

func probeBaseline(o deployOpts) (*probeRef, error) {
	persons, err := personBaseline(o, personsCount())
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	ref := &probeRef{persons: persons}
	for _, b := range persons.seqs {
		_, rest, ok := bytes.Cut(b, []byte("<city>"))
		city, _, ok2 := bytes.Cut(rest, []byte("</city>"))
		if ok && ok2 && !seen[string(city)] {
			seen[string(city)] = true
			ref.cities = append(ref.cities, string(city))
		}
	}
	if len(ref.cities) == 0 {
		return nil, fmt.Errorf("probe: no city in the persons baseline")
	}
	sort.Strings(ref.cities)
	reqs := make([]*soap.Request, len(ref.cities))
	for i, c := range ref.cities {
		reqs[i] = personsInRequest(c)
	}
	ref.byCity, err = unshardedResponses(o, reqs)
	return ref, err
}

func personsInRequest(city string) *soap.Request {
	return &soap.Request{Module: "functions_p", Method: "personsIn", Arity: 1, Location: pModuleAt,
		Calls: [][]xdm.Sequence{{{xdm.String(city)}}}}
}

// op is a personsIn read of a uniformly drawn city (probeBroadcastShare
// of the ops) or a getPerson Bulk RPC of probeCalls uniformly drawn
// persons. Uniform draws keep the tier-1 hit ratio a matter of the
// cache's size alone, with no popularity curve to justify.
func (p *probeInst) op(c *clientState) (time.Duration, error) {
	if c.rng.Float64() < probeBroadcastShare {
		i := c.rng.Intn(len(p.ref.cities))
		p.reads.Add(1)
		body, took, err := p.post(c.id, personsInRequest(p.ref.cities[i]), c.opID, "read")
		if err != nil {
			return took, err
		}
		if !bytes.Equal(body, p.ref.byCity[i]) {
			return took, fmt.Errorf("probe: personsIn(%q) differs from the unsharded baseline", p.ref.cities[i])
		}
		return took, nil
	}
	ids := make([]string, probeCalls)
	want := make([][]byte, probeCalls)
	for i := range ids {
		k := c.rng.Intn(len(p.ref.persons.seqs))
		ids[i] = personID(k)
		want[i] = p.ref.persons.seqs[k]
	}
	p.reads.Add(1)
	body, took, err := p.post(c.id, probeRequest(ids), c.opID, "read")
	if err != nil {
		return took, err
	}
	if !p.ref.persons.matches(body, want) {
		return took, fmt.Errorf("probe: getPerson%v differs from the unsharded baseline", ids)
	}
	return took, nil
}

func (p *probeInst) corrupt() {
	p.ref = &probeRef{
		persons: &framed{prefix: p.ref.persons.prefix, suffix: p.ref.persons.suffix, seqs: corruptAll(p.ref.persons.seqs)},
		cities:  p.ref.cities,
		byCity:  corruptAll(p.ref.byCity),
	}
}

func (p *probeInst) release() {
	p.ref = nil
	p.releaseWriters()
}

// -------------------------------------------------------------- scan

type scanInst struct {
	*clusterInst
	want []byte
}

func scanRequest() *soap.Request {
	return &soap.Request{Module: "functions_b", Method: "Q_B1", Arity: 0, Location: bModuleAt,
		Calls: [][]xdm.Sequence{{}}}
}

func setupScan(seed int64, _ string, tr *tracer) (instance, error) {
	cfg := xmark.PaperConfig(scanScale)
	cfg.Seed = seed
	o := deployOpts{
		docs:   map[string]string{"auctions.xml": xmark.GenerateAuctions(cfg)},
		module: strategies.FunctionsB, atHint: bModuleAt,
	}
	want, err := reference(fmt.Sprintf("scan-%d", seed), func() ([]byte, error) {
		resps, err := unshardedResponses(o, []*soap.Request{scanRequest()})
		if err != nil {
			return nil, err
		}
		return resps[0], nil
	})
	if err != nil {
		return nil, err
	}
	ci, err := deployCluster(o, tr)
	if err != nil {
		return nil, err
	}
	s := &scanInst{clusterInst: ci, want: want}
	if err := warmUp(s, clusterClients, seed, 4); err != nil {
		ci.close()
		return nil, err
	}
	return s, nil
}

func (s *scanInst) op(c *clientState) (time.Duration, error) {
	s.reads.Add(1)
	body, took, err := s.post(c.id, scanRequest(), c.opID, "read")
	if err != nil {
		return took, err
	}
	if !bytes.Equal(body, s.want) {
		return took, fmt.Errorf("scan: response differs from the unsharded baseline (%d vs %d bytes)", len(body), len(s.want))
	}
	return took, nil
}

func (s *scanInst) corrupt() { s.want = corruptBytes(s.want) }

func (s *scanInst) release() {
	s.want = nil
	s.releaseWriters()
}

// --------------------------------------------------------- write-mix

// mixInst gives each client half of the persons to write; each client
// keeps a model of the cities of its own keys, which every read checks.
type mixInst struct {
	*clusterInst
	baseline *framed
	models   [clusterClients]map[int]string // person number → city written by that client
	owned    [clusterClients][]int
	version  [clusterClients]int
}

var walSeq atomic.Int64

func setupWriteMix(seed int64, dir string, tr *tracer) (instance, error) {
	walRoot, err := filepath.Abs(filepath.Join(dir, "wal",
		fmt.Sprintf("%d-%d", os.Getpid(), walSeq.Add(1))))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(walRoot); err != nil {
		return nil, err
	}
	o := deployOpts{docs: personsDocs(seed), module: bench.FunctionsP, atHint: pModuleAt,
		caches: true, walRoot: walRoot}
	base, err := reference(fmt.Sprintf("persons-%d", seed), func() (*framed, error) { return personBaseline(o, personsCount()) })
	if err != nil {
		return nil, err
	}
	ci, err := deployCluster(o, tr)
	if err != nil {
		return nil, err
	}
	m := &mixInst{clusterInst: ci, baseline: base}
	for c := range m.models {
		m.models[c] = map[int]string{}
	}
	for k := range base.seqs {
		m.owned[k%clusterClients] = append(m.owned[k%clusterClients], k)
	}
	if err := warmUp(m, clusterClients, seed, mixWarmOps); err != nil {
		ci.close()
		return nil, err
	}
	return m, nil
}

// expectedSeq is the encoded getPerson answer for person k as client c
// last wrote it.
func (m *mixInst) expectedSeq(c, k int) []byte {
	city, ok := m.models[c][k]
	if !ok {
		return m.baseline.seqs[k]
	}
	b := m.baseline.seqs[k]
	i := bytes.Index(b, []byte("<city>"))
	j := bytes.Index(b, []byte("</city>"))
	if i < 0 || j < i {
		return b // a damaged baseline (options.corrupt): the read fails
	}
	out := make([]byte, 0, len(b)+len(city))
	out = append(out, b[:i+len("<city>")]...)
	out = append(out, city...)
	return append(out, b[j:]...)
}

func (m *mixInst) op(c *clientState) (time.Duration, error) {
	own := m.owned[c.id]
	if c.rng.Float64() < mixWriteShare {
		k := own[c.rng.Intn(len(own))]
		m.version[c.id]++
		city := fmt.Sprintf("c%dv%d", c.id, m.version[c.id])
		req := &soap.Request{Module: "functions_p", Method: "setCity", Arity: 2, Location: pModuleAt,
			Updating: true, Calls: [][]xdm.Sequence{{{xdm.String(personID(k))}, {xdm.String(city)}}}}
		m.writes.Add(1)
		_, took, err := m.post(c.id, req, c.opID, "write")
		c.sample("write", took)
		if err != nil {
			// the write may or may not have committed: the model no
			// longer knows this key, so later reads of it fail too
			m.models[c.id][k] = "unknown after failed write"
			return took, err
		}
		m.models[c.id][k] = city
		return took, nil
	}
	ks := make([]int, mixReadCalls)
	ids := make([]string, mixReadCalls)
	want := make([][]byte, mixReadCalls)
	for i := range ks {
		ks[i] = own[c.rng.Intn(len(own))]
		ids[i] = personID(ks[i])
		want[i] = m.expectedSeq(c.id, ks[i])
	}
	m.reads.Add(1)
	body, took, err := m.post(c.id, probeRequest(ids), c.opID, "read")
	c.sample("read", took)
	if err != nil {
		return took, err
	}
	if !m.baseline.matches(body, want) {
		return took, fmt.Errorf("write-mix: read of %v differs from the client's model of its own keys", ids)
	}
	return took, nil
}

func (m *mixInst) corrupt() {
	b := m.baseline
	m.baseline = &framed{prefix: b.prefix, suffix: b.suffix, seqs: corruptAll(b.seqs)}
}

func (m *mixInst) release() {
	m.baseline = nil
	for c := range m.models {
		m.models[c] = nil
	}
	m.releaseWriters()
}

// warmUp runs ops from a seeded stream of its own, sequentially on each
// client in turn, and fails on the first wrong answer: set-up proves the
// deployment answers correctly before anything is timed.
func warmUp(inst instance, clients int, seed int64, ops int) error {
	states := make([]*clientState, clients)
	for i := range states {
		states[i] = newClient(i, -seed-int64(i)-1)
	}
	for n := 0; n < ops; n++ {
		cs := states[n%clients]
		if _, err := inst.op(cs); err != nil {
			return fmt.Errorf("warm-up op %d: %w", n, err)
		}
		cs.ops++
	}
	return nil
}

func corruptAll(seqs [][]byte) [][]byte {
	out := make([][]byte, len(seqs))
	for i, b := range seqs {
		out[i] = corruptBytes(b)
	}
	return out
}

func corruptBytes(b []byte) []byte {
	out := append([]byte(nil), b...)
	if len(out) == 0 {
		return []byte("x")
	}
	out[len(out)/2] ^= 0x20
	return out
}
