package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"xrpc/internal/cluster"
	"xrpc/internal/interp"
	"xrpc/internal/modules"
	"xrpc/internal/netsim"
	"xrpc/internal/obs"
	"xrpc/internal/planner"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/store"
	"xrpc/internal/wal"
	"xrpc/internal/xdm"
)

const (
	clusterShards  = 4
	clusterClients = 2
	// cacheBytes bounds both cache tiers where they are on: more than
	// every answer of a workload takes, so that only an entry count
	// (deployOpts.respEntries) makes the tier-1 cache evict.
	cacheBytes = 32 << 20
	pModuleAt  = "http://example.org/p.xq"
	bModuleAt  = "http://example.org/b.xq"
)

// clusterInst is a sharded deployment reached the way a client of the
// xrpcd proxy reaches it: SOAP requests posted to cluster.Proxy.
type clusterInst struct {
	net   *netsim.Network
	dep   *cluster.Deployment
	co    *cluster.Coordinator
	proxy *cluster.Proxy
	tr    *tracer
	reg   *obs.Registry // traced runs only
	// walRoot is the WAL directory of durable deployments ("" = none).
	walRoot string

	// writers[c] receives client c's responses; a client reuses its own.
	writers [clusterClients]*respWriter

	proxyRequests, proxyBytes atomic.Int64
	reads, writes             atomic.Int64
}

type deployOpts struct {
	docs   map[string]string
	module string
	atHint string
	caches bool
	// respEntries bounds each shard's tier-1 cache by entry count
	// (0 = by bytes only); resultBytes bounds the tier-2 cache
	// (0 = cacheBytes).
	respEntries int
	resultBytes int64
	walRoot     string
}

func deployCluster(o deployOpts, tr *tracer) (*clusterInst, error) {
	reg := modules.NewRegistry()
	if err := reg.Register(o.module, o.atHint); err != nil {
		return nil, err
	}
	net := netsim.NewNetwork(0, 0)
	cfg := cluster.DeployConfig{Shards: clusterShards, WALRoot: o.walRoot}
	if o.caches {
		cfg.RespCacheBytes = cacheBytes
		cfg.RespCacheEntries = o.respEntries
		cfg.ResultCacheBytes = cacheBytes
		if o.resultBytes > 0 {
			cfg.ResultCacheBytes = o.resultBytes
		}
	}
	dep, err := cluster.Deploy(net, reg, o.docs, cfg)
	if err != nil {
		return nil, err
	}
	co := dep.Coordinator()
	ci := &clusterInst{net: net, dep: dep, co: co, proxy: &cluster.Proxy{Co: co}, tr: tr, walRoot: o.walRoot}
	for c := range ci.writers {
		ci.writers[c] = &respWriter{}
	}
	if tr != nil {
		ci.reg = obs.NewRegistry()
		co.Metrics = cluster.NewMetrics(ci.reg, clusterShards)
		co.Planner.Metrics = planner.NewMetrics(ci.reg)
		for s, reps := range dep.Servers {
			for j, srv := range reps {
				srv.SetWALMetrics(wal.NewMetrics(ci.reg,
					obs.Label{Key: "peer", Value: fmt.Sprintf("s%dr%d", s, j)}))
			}
		}
		var uris []string
		for s := 0; s < dep.Table.NumShards(); s++ {
			uris = append(uris, dep.Table.Replicas(s)...)
		}
		traceHandlers(tr, net, uris)
	}
	return ci, nil
}

// unshardedResponses posts each request to a single peer holding the
// whole documents and returns its response bodies: the baselines a
// sharded answer must match byte for byte.
func unshardedResponses(o deployOpts, reqs []*soap.Request) ([][]byte, error) {
	reg := modules.NewRegistry()
	if err := reg.Register(o.module, o.atHint); err != nil {
		return nil, err
	}
	st := store.New()
	for name, xml := range o.docs {
		if err := st.LoadXML(name, xml); err != nil {
			return nil, err
		}
	}
	srv := server.New(st, reg, server.NewNativeExecutor(interp.New(st, reg, nil), reg))
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		resp, err := srv.HandleXRPC("/xrpc", soap.EncodeRequest(req))
		if err != nil {
			return nil, err
		}
		if bytes.Contains(resp, []byte("<env:Fault")) {
			return nil, fmt.Errorf("baseline fault: %s", resp)
		}
		out[i] = resp
	}
	return out, nil
}

// framed is a response cut into its envelope and its per-call
// <xrpc:sequence> blocks, exactly as the peer wrote them.
type framed struct {
	prefix, suffix []byte
	seqs           [][]byte
}

// splitResponse cuts a response body into a framed; the sequences must
// follow one another with nothing in between.
func splitResponse(resp []byte) (*framed, error) {
	const open, close = "<xrpc:sequence>", "</xrpc:sequence>\n"
	i := bytes.Index(resp, []byte(open))
	if i < 0 {
		return nil, fmt.Errorf("baseline response holds no sequence")
	}
	f := &framed{prefix: resp[:i]}
	rest := resp[i:]
	for bytes.HasPrefix(rest, []byte(open)) {
		j := bytes.Index(rest, []byte(close))
		if j < 0 {
			return nil, fmt.Errorf("unterminated sequence in baseline response")
		}
		f.seqs = append(f.seqs, rest[:j+len(close)])
		rest = rest[j+len(close):]
	}
	if bytes.Contains(rest, []byte(open)) {
		return nil, fmt.Errorf("baseline response has text between its sequences")
	}
	f.suffix = rest
	return f, nil
}

// matches reports whether body is f's envelope around seqs, in order:
// the framing comes from the unsharded peer, not from the encoder the
// program under test uses.
func (f *framed) matches(body []byte, seqs [][]byte) bool {
	if !bytes.HasPrefix(body, f.prefix) {
		return false
	}
	rest := body[len(f.prefix):]
	for _, s := range seqs {
		if !bytes.HasPrefix(rest, s) {
			return false
		}
		rest = rest[len(s):]
	}
	return bytes.Equal(rest, f.suffix)
}

// respWriter is the http.ResponseWriter the proxy writes into: it keeps
// the body and the time of the first flushed byte.
type respWriter struct {
	h     http.Header
	buf   bytes.Buffer
	code  int
	start time.Time
	first time.Duration
}

func (w *respWriter) Header() http.Header { return w.h }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *respWriter) Write(p []byte) (int, error) {
	if w.first == 0 && len(p) > 0 {
		w.first = time.Since(w.start)
	}
	return w.buf.Write(p)
}
func (w *respWriter) Flush() {}

// post sends one SOAP request of client c through the proxy and returns
// the response body (valid until c's next post) and the time the proxy
// took. A recovered http.ErrAbortHandler — the proxy's mid-stream
// abort — is an error.
func (ci *clusterInst) post(c int, req *soap.Request, op int64, kind string) (body []byte, took time.Duration, err error) {
	w := ci.writers[c]
	req.TraceID = traceID(op)
	reqBody := soap.EncodeRequest(req)
	hr, err := http.NewRequest(http.MethodPost, "/xrpc", bytes.NewReader(reqBody))
	if err != nil {
		return nil, 0, err
	}
	w.h = http.Header{}
	w.buf.Reset()
	w.code, w.first = 0, 0
	start := ci.tr.now0()
	w.start = time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				if r == http.ErrAbortHandler {
					err = fmt.Errorf("proxy aborted the response mid-stream")
					return
				}
				panic(r)
			}
		}()
		ci.proxy.ServeHTTP(w, hr)
	}()
	took = time.Since(w.start)
	if ci.tr != nil {
		ci.tr.add(span{Name: "cluster.proxy", Start: start, End: ci.tr.now(), Parent: -1,
			Op: op, Kind: kind, In: int64(len(reqBody)), Out: int64(w.buf.Len()),
			First: int64(w.first)})
	}
	ci.proxyRequests.Add(1)
	ci.proxyBytes.Add(int64(len(reqBody) + w.buf.Len()))
	if err != nil {
		return nil, took, err
	}
	if w.code != 0 && w.code != http.StatusOK {
		return nil, took, fmt.Errorf("proxy status %d: %s", w.code, w.buf.Bytes())
	}
	body = w.buf.Bytes()
	if bytes.Contains(body[:min(len(body), 512)], []byte("<env:Fault")) {
		return nil, took, fmt.Errorf("fault: %s", body)
	}
	return body, took, nil
}

func (ci *clusterInst) counters() counters {
	s := &ci.net.Stats
	c := counters{
		"wire.requests":   float64(s.Requests.Load() + ci.proxyRequests.Load()),
		"wire.bytes":      float64(s.BytesSent.Load() + s.BytesReceived.Load() + ci.proxyBytes.Load()),
		"netsim.sent":     float64(s.BytesSent.Load()),
		"netsim.received": float64(s.BytesReceived.Load()),
		"ops.reads":       float64(ci.reads.Load()),
		"ops.writes":      float64(ci.writes.Load()),
	}
	for _, reps := range ci.dep.Servers {
		for _, srv := range reps {
			c["server.calls"] += float64(srv.ServedCalls)
			if srv.RespCache != nil {
				st := srv.RespCache.Stats()
				c["respcache.hits"] += float64(st.Hits)
				c["respcache.misses"] += float64(st.Misses)
				c["respcache.evictions"] += float64(st.Evictions)
			}
			if x, ok := srv.Exec.(*server.NativeExecutor); ok {
				st := x.PlanCacheStats()
				c["plancache.hits"] += float64(st.Hits)
				c["plancache.misses"] += float64(st.Misses)
			}
		}
	}
	if rc := ci.co.ResultCache; rc != nil {
		st := rc.Stats()
		c["resultcache.hits"] = float64(st.Hits)
		c["resultcache.partial"] = float64(st.PartialHits)
		c["resultcache.misses"] = float64(st.Misses)
	}
	if ci.reg != nil {
		for _, s := range []string{"routed", "pruned", "broadcast"} {
			v, _ := ci.reg.Gather("xrpc_planner_strategy_total", obs.Label{Key: "strategy", Value: s})
			c["planner."+s] = v
		}
		v, _ := ci.reg.Gather("xrpc_txn_commits_total")
		c["txn.commits"] = v
		var prom bytes.Buffer
		if err := ci.reg.WritePrometheus(&prom); err == nil {
			c["wal.fsyncs"] = promSum(prom.String(), "xrpc_wal_fsync_seconds_count")
			c["wal.fsync_s"] = promSum(prom.String(), "xrpc_wal_fsync_seconds_sum")
		}
	}
	if ci.walRoot != "" {
		c["wal.bytes"] = float64(dirBytes(ci.walRoot))
	}
	return c
}

// promSum adds up every sample of one series in Prometheus text format.
func promSum(text, series string) float64 {
	var total float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		rest := line[len(series):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err == nil {
			total += v
		}
	}
	return total
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil // a file removed mid-walk (log rotation) is not an error here
	})
	return n
}

// releaseWriters drops the clients' response buffers.
func (ci *clusterInst) releaseWriters() {
	for c := range ci.writers {
		ci.writers[c] = &respWriter{}
	}
}

func (ci *clusterInst) close() error {
	err := ci.dep.Close()
	if ci.walRoot != "" {
		if rerr := os.RemoveAll(ci.walRoot); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// probeRequest is a getPerson Bulk RPC over the given keys.
func probeRequest(keys []string) *soap.Request {
	req := &soap.Request{Module: "functions_p", Method: "getPerson", Arity: 1, Location: pModuleAt}
	for _, k := range keys {
		req.Calls = append(req.Calls, []xdm.Sequence{{xdm.String(k)}})
	}
	return req
}

// personBaseline is the unsharded answer of getPerson for every person:
// its framing, and its encoded sequences indexed by person number.
func personBaseline(o deployOpts, persons int) (*framed, error) {
	keys := make([]string, persons)
	for i := range keys {
		keys[i] = personID(i)
	}
	resps, err := unshardedResponses(o, []*soap.Request{probeRequest(keys)})
	if err != nil {
		return nil, err
	}
	f, err := splitResponse(resps[0])
	if err != nil {
		return nil, err
	}
	if len(f.seqs) != persons {
		return nil, fmt.Errorf("baseline has %d sequences for %d persons", len(f.seqs), persons)
	}
	return f, nil
}
