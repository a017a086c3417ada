package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"xrpc/internal/client"
	"xrpc/internal/netsim"
	"xrpc/internal/pathfinder"
	"xrpc/internal/strategies"
	"xrpc/internal/xdm"
	"xrpc/internal/xmark"
)

// q7Scale is the XMark scale of the q7 workload: 25 persons and 487
// closed auctions (~0.55 MB auctions.xml), so one round of all four
// rewrites takes well under a second and a run holds enough rounds for
// its percentiles.
const q7Scale = 0.1

// q7Rewrite is one of the paper's four distribution strategies for Q7.
type q7Rewrite struct{ class, query string }

var q7Rewrites = []q7Rewrite{
	{"ship", strategies.QDataShipping},
	{"pushdown", strategies.QPredicatePushdown},
	{"relocate", strategies.QExecutionRelocation},
	{"semijoin", strategies.QDistributedSemiJoin},
}

func init() {
	// paper Table 4: data shipping and push-down spend their time in
	// the issuing loop-lifting engine, relocation and semi-join at the
	// wrapped remote peer, so one workload both exercises and bypasses
	// the engine
	register(&workload{
		name:    "q7",
		clients: 1,
		setup:   setupQ7,
	})
}

// q7Inst is the §5 two-peer deployment: peer A evaluates with the
// loop-lifting engine over persons.xml, peer B answers through the §4
// wrapper over auctions.xml.
type q7Inst struct {
	env *strategies.Env
	tr  *tracer
	// ref is the serialized answer all four rewrites must produce.
	ref string
	// wrapper phase times of peer B, summed over every rewrite (ns).
	wrapCompile, wrapTree, wrapExec atomic.Int64
}

func setupQ7(seed int64, _ string, tr *tracer) (instance, error) {
	cfg := xmark.PaperConfig(q7Scale)
	cfg.Seed = seed
	env, err := strategies.NewEnvNet(cfg, netsim.NewNetwork(0, 0))
	if err != nil {
		return nil, err
	}
	q := &q7Inst{env: env}
	// the reference answer: every rewrite must agree, byte for byte
	for i, rw := range q7Rewrites {
		out, _, err := q.runRewrite(rw, 0, -1)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			q.ref = out
		} else if out != q.ref {
			return nil, fmt.Errorf("q7: %s disagrees with %s", rw.class, q7Rewrites[0].class)
		}
	}
	if q.ref == "" || q.ref == xdm.SerializeSequence(nil) {
		return nil, fmt.Errorf("q7: empty reference answer")
	}
	if tr != nil {
		q.tr = tr
		traceHandlers(tr, env.Net, []string{strategies.PeerA, strategies.PeerB})
	}
	return q, nil
}

// op is one round: all four rewrites, each checked against the
// reference answer. Its time is the sum of the four rewrites' compile
// and evaluation times.
func (q *q7Inst) op(c *clientState) (time.Duration, error) {
	root := -1
	if q.tr != nil {
		q.tr.cur.Store(c.opID)
		root = q.tr.begin("q7.round", -1, c.opID)
		defer q.tr.end(root)
	}
	var total time.Duration
	for _, rw := range q7Rewrites {
		out, took, err := q.runRewrite(rw, c.opID, root)
		total += took
		c.sample(rw.class, took)
		if err != nil {
			return total, fmt.Errorf("q7 %s: %w", rw.class, err)
		}
		if out != q.ref {
			return total, fmt.Errorf("q7 %s: answer differs from the reference (%d vs %d bytes)", rw.class, len(out), len(q.ref))
		}
	}
	return total, nil
}

// runRewrite compiles and evaluates one rewrite at peer A, the way a
// query author's client does: a fresh client and document resolver per
// query. It returns the serialized answer and the compile and
// evaluation time.
func (q *q7Inst) runRewrite(rw q7Rewrite, op int64, parent int) (string, time.Duration, error) {
	tr := q.tr
	top := tr.begin("q7."+rw.class, parent, op)
	defer tr.end(top)

	t0 := time.Now()
	ci := tr.begin("pathfinder.compile", top, op)
	compiled, err := pathfinder.Compile(rw.query, q.env.Registry)
	tr.end(ci)
	if err != nil {
		return "", time.Since(t0), err
	}
	cl := client.New(q.env.Net)
	ec := &pathfinder.ExecCtx{
		Docs: &client.DocResolver{Local: q.env.StoreA, Client: cl},
		Bulk: cl,
	}
	ei := tr.beginAllocs("pathfinder.eval", top, op)
	if tr != nil {
		ec.Docs = &docShim{tr: tr, parent: ei, op: op, d: ec.Docs}
		ec.Bulk = &bulkShim{tr: tr, parent: ei, op: op, b: ec.Bulk}
	}
	q.env.ServerB.ResetStats()
	seq, err := compiled.Eval(ec, nil)
	tr.endAllocs(ei)
	took := time.Since(t0)
	st := q.env.ServerB.LastStats
	q.wrapCompile.Add(int64(st.Compile))
	q.wrapTree.Add(int64(st.TreeBuild))
	q.wrapExec.Add(int64(st.Exec))
	if err != nil {
		return "", took, err
	}
	return xdm.SerializeSequence(seq), took, nil
}

func (q *q7Inst) counters() counters {
	s := &q.env.Net.Stats
	return counters{
		"wire.requests":        float64(s.Requests.Load()),
		"wire.bytes":           float64(s.BytesSent.Load() + s.BytesReceived.Load()),
		"netsim.sent":          float64(s.BytesSent.Load()),
		"netsim.received":      float64(s.BytesReceived.Load()),
		"wrapper.compile_ns":   float64(q.wrapCompile.Load()),
		"wrapper.treebuild_ns": float64(q.wrapTree.Load()),
		"wrapper.exec_ns":      float64(q.wrapExec.Load()),
	}
}

func (q *q7Inst) corrupt() { q.ref = corruptString(q.ref) }

func (q *q7Inst) release() { q.ref = "" }

func (q *q7Inst) close() error { return nil }

// corruptString flips one byte in the middle of s.
func corruptString(s string) string {
	if s == "" {
		return "x"
	}
	b := []byte(s)
	b[len(b)/2] ^= 0x20
	return string(b)
}
