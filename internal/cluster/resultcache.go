package cluster

import (
	"io"
	"sync"
	"sync/atomic"

	"xrpc/internal/cache"
	"xrpc/internal/client"
	"xrpc/internal/server"
	"xrpc/internal/soap"
	"xrpc/internal/xdm"
)

// DefaultResultCacheBytes bounds the coordinator's merged-result cache
// when enabled without an explicit size.
const DefaultResultCacheBytes = 64 << 20

// ResultCache is the Tier-2 coordinator cache: whole merged scatter
// results keyed on the request's encoded call set and fenced on a
// per-shard fence vector of (store version, registry generation).
// Revalidation is a shardInfo probe — one tiny system call per shard
// instead of re-executing the query — and a broadcast entry whose
// vector is partially stale refreshes only the stale shards, splicing
// their fresh results into the retained ones.
type ResultCache struct {
	lru *cache.LRU

	// Semantic counters (the LRU's own hit/miss counters track entry
	// presence; these track what presence *meant*):
	//   Hits          — entry present and every shard's version matched
	//   PartialHits   — entry present, only the stale shards re-queried
	//   Misses        — no entry (or an unrefreshable stale entry)
	//   Revalidations — version probes performed
	Hits, PartialHits, Misses, Revalidations atomic.Int64
}

// ResultCacheStats is a point-in-time snapshot of a ResultCache.
type ResultCacheStats struct {
	Hits, PartialHits, Misses, Revalidations int64
	Entries                                  int
	Bytes                                    int64
}

// NewResultCache builds a merged-result cache bounded by maxBytes
// (0 = DefaultResultCacheBytes) of estimated result size.
func NewResultCache(maxBytes int64) *ResultCache {
	if maxBytes <= 0 {
		maxBytes = DefaultResultCacheBytes
	}
	return &ResultCache{lru: cache.New(maxBytes, 0)}
}

// Stats snapshots the counters and current size.
func (rc *ResultCache) Stats() ResultCacheStats {
	st := rc.lru.Stats()
	return ResultCacheStats{
		Hits:          rc.Hits.Load(),
		PartialHits:   rc.PartialHits.Load(),
		Misses:        rc.Misses.Load(),
		Revalidations: rc.Revalidations.Load(),
		Entries:       st.Entries,
		Bytes:         st.Bytes,
	}
}

// Clear drops every entry (counters are preserved).
func (rc *ResultCache) Clear() { rc.lru.Clear() }

// shardFence is one shard's freshness coordinates: the store's
// commit-fence version (every committed write advances it by one step)
// and the module registry's generation (every Register advances it).
// Both must match for a cached result to be reused — module
// re-registration changes semantics with no store write, so a store
// version alone cannot see it (the Tier-1 respcache keys on
// Generation() for the same reason).
type shardFence struct {
	version    int64
	generation int64
}

// resultEntry is one cached merged result.
type resultEntry struct {
	// fences[s] is shard s's (version, generation) fence the entry is
	// valid at (probed around population, stored for every shard).
	fences []shardFence
	// perShard[s][i] is shard s's own result for call i — retained for
	// broadcast scatters so a partially-stale entry can refresh just
	// the stale shards. nil for pruned scatters (their per-call shard
	// subsets don't decompose this way); those entries are all-or-
	// nothing.
	perShard [][]xdm.Sequence
	// merged is the full shard-order merge — what a hit returns.
	merged []xdm.Sequence
}

// clipped returns the merged result with every slice's capacity clipped
// to its length, so a caller appending to a returned sequence reallocates
// instead of scribbling over the cached backing array.
func (e *resultEntry) clipped() []xdm.Sequence {
	out := make([]xdm.Sequence, len(e.merged))
	for i, seq := range e.merged {
		out[i] = seq[:len(seq):len(seq)]
	}
	return out
}

// estimateSize prices a merged result for the byte bound: the encoded
// envelope size of each sequence, measured with the same pooled encoder
// the response path uses.
func estimateSize(key string, merged []xdm.Sequence) int64 {
	enc := soap.NewEncoder()
	defer enc.Release()
	for _, seq := range merged {
		enc.BeginSequence()
		for _, it := range seq {
			enc.EncodeItem(it)
		}
		enc.EndSequence()
	}
	return int64(len(key) + len(enc.Bytes()))
}

// probeFences asks every shard for its (version, generation) fence via
// the shardInfo system call (encode once, post to each shard with
// replica failover). An error — or a shard that does not report both
// fence items, e.g. a peer predating the fence — disables caching for
// this request.
func (co *Coordinator) probeFences() ([]shardFence, error) {
	enc := co.Client.EncodeBulk(&client.BulkRequest{
		ModuleURI: client.SystemModule,
		Func:      "shardInfo",
		Arity:     0,
		Calls:     [][]xdm.Sequence{{}},
	})
	defer enc.Release()
	body := enc.Bytes()
	n := co.Table.NumShards()
	fences := make([]shardFence, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			res, err := co.callShard(s, body, 1)
			if err != nil {
				errs[s] = err
				return
			}
			var haveVer, haveGen bool
			for _, it := range res[0] {
				if v, ok := server.ParseVersionItem(it.StringValue()); ok {
					fences[s].version, haveVer = v, true
				}
				if g, ok := server.ParseGenerationItem(it.StringValue()); ok {
					fences[s].generation, haveGen = g, true
				}
			}
			if !haveVer || !haveGen {
				errs[s] = xdm.Errorf("XRPC0007", "shard %d reports no version/generation fence", s)
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// the planner's per-shard statistics fence on the same probe round:
	// revalidation and snapshot refresh ride along for free
	co.notePlannerFences(fences)
	return fences, nil
}

func sameFences(a, b []shardFence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resultKey is the merged-result cache key of br: its encoded body
// without the trace ID. The proxy mints a fresh trace ID per request and
// shards still receive it in body, but it does not change the answer, so
// keying on body as sent would make every proxied read a miss.
func (co *Coordinator) resultKey(br *client.BulkRequest, body []byte) string {
	if br.TraceID == "" {
		return string(body)
	}
	req := co.Client.SOAPRequest(br)
	req.TraceID = ""
	enc := soap.NewEncoder()
	defer enc.Release()
	enc.EncodeRequest(req)
	return string(enc.Bytes())
}

// scatterCached answers a read-only scatter through the merged-result
// cache. The key is the request's destination-independent encoded body
// minus its trace ID (resultKey); freshness is the
// per-shard (version, generation) fence vector. Any probe failure falls
// back to plain execution with caching off — stale is never served.
func (co *Coordinator) scatterCached(br *client.BulkRequest) ([]xdm.Sequence, error) {
	rc := co.ResultCache
	enc := co.Client.EncodeBulk(br)
	defer enc.Release()
	body := enc.Bytes()
	key := co.resultKey(br, body)

	if v, _, ok := rc.lru.GetAny(key); ok {
		entry := v.(*resultEntry)
		rc.Revalidations.Add(1)
		probed, err := co.probeFences()
		switch {
		case err != nil:
			// a shard we can't probe is a shard we can't trust the
			// entry against: execute directly, don't populate
			rc.Misses.Add(1)
			return co.scatterDirect(br)
		case sameFences(entry.fences, probed):
			rc.Hits.Add(1)
			return entry.clipped(), nil
		case entry.perShard != nil:
			// broadcast entry, some shards moved on: re-query only
			// those, splice, and re-store under the probed vector.
			// A commit landing between probe and refresh tags the
			// fresher data with the older probed fence — the safe
			// direction (one extra refresh later, never a stale serve).
			merged, err := co.refreshStale(br, body, key, entry, probed)
			if err != nil {
				return nil, err
			}
			rc.PartialHits.Add(1)
			return merged, nil
		default:
			// pruned entry: no per-shard split to refresh from
			rc.lru.Remove(key)
		}
	}

	rc.Misses.Add(1)
	// populate guard: probe before and after execution and store only
	// when the fence vectors agree — a commit landing mid-scatter could
	// otherwise tag mixed-version results as clean
	pre, preErr := co.probeFences()
	dec := co.plan(br)
	var merged []xdm.Sequence
	var perShard [][]xdm.Sequence
	var err error
	if dec.strategy != "broadcast" {
		merged, err = co.scatterPruned(br, dec)
	} else {
		merged, perShard, err = co.gatherCapture(br, body, preErr == nil, dec)
	}
	if err != nil {
		return nil, err
	}
	if preErr == nil {
		if post, err := co.probeFences(); err == nil && sameFences(pre, post) {
			entry := &resultEntry{fences: pre, perShard: perShard, merged: merged}
			rc.lru.Put(key, entry, estimateSize(key, merged), 0)
			return entry.clipped(), nil
		}
	}
	return merged, nil
}

// encodeMergedTo renders a materialized merged result as the response
// envelope — the hit path of the streamed cached scatter, whose result
// the cache necessarily holds anyway. Byte-identical to the incremental
// encoder's output for the same sequences.
func encodeMergedTo(w io.Writer, br *client.BulkRequest, results []xdm.Sequence) error {
	return soap.EncodeResponseTo(w, &soap.Response{
		Module: br.ModuleURI, Method: br.Func, Results: results,
	})
}

// scatterCachedStream is scatterCached for the streaming response path
// (broadcast requests only — ScatterStream handles pruned requests
// before consulting the cache). Hits and partial hits encode the cached
// sequences; a miss keeps the gather incremental — items flow to w as
// shards produce them — and retains one copy of the result only to
// populate the cache (and only when a clean pre-probe means the entry
// may actually be stored).
func (co *Coordinator) scatterCachedStream(br *client.BulkRequest, w io.Writer) error {
	rc := co.ResultCache
	enc := co.Client.EncodeBulk(br)
	defer enc.Release()
	body := enc.Bytes()
	key := co.resultKey(br, body)

	if v, _, ok := rc.lru.GetAny(key); ok {
		entry := v.(*resultEntry)
		rc.Revalidations.Add(1)
		probed, err := co.probeFences()
		switch {
		case err != nil:
			rc.Misses.Add(1)
			_, _, err := co.gatherStreamCapture(br, body, w, false, nil)
			return err
		case sameFences(entry.fences, probed):
			rc.Hits.Add(1)
			return encodeMergedTo(w, br, entry.merged)
		case entry.perShard != nil:
			merged, err := co.refreshStale(br, body, key, entry, probed)
			if err != nil {
				return err
			}
			rc.PartialHits.Add(1)
			return encodeMergedTo(w, br, merged)
		default:
			rc.lru.Remove(key)
		}
	}

	rc.Misses.Add(1)
	pre, preErr := co.probeFences()
	merged, perShard, err := co.gatherStreamCapture(br, body, w, preErr == nil, nil)
	if err != nil {
		return err
	}
	if preErr == nil {
		if post, err := co.probeFences(); err == nil && sameFences(pre, post) {
			entry := &resultEntry{fences: pre, perShard: perShard, merged: merged}
			rc.lru.Put(key, entry, estimateSize(key, merged), 0)
		}
	}
	return nil
}

// refreshStale re-queries exactly the shards whose probed fence differs
// from the entry's, rebuilds the merge from retained + fresh per-shard
// results, and re-stores the entry under the probed vector.
func (co *Coordinator) refreshStale(br *client.BulkRequest, body []byte, key string, entry *resultEntry, probed []shardFence) ([]xdm.Sequence, error) {
	n := co.Table.NumShards()
	if len(entry.fences) != n || len(entry.perShard) != n {
		// table resized since population: the entry's shard split no
		// longer lines up — full re-execute
		return co.scatterDirect(br)
	}
	fresh := make([][]xdm.Sequence, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		if probed[s] == entry.fences[s] {
			fresh[s] = entry.perShard[s]
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fresh[s], errs[s] = co.callShard(s, body, len(br.Calls))
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, xdm.Errorf("XRPC0007", "cluster: shard %d: %v", s, err)
		}
	}
	merged := make([]xdm.Sequence, len(br.Calls))
	for i := range merged {
		var seq xdm.Sequence
		for s := 0; s < n; s++ {
			seq = append(seq, fresh[s][i]...)
		}
		merged[i] = seq
	}
	next := &resultEntry{
		fences:   append([]shardFence(nil), probed...),
		perShard: fresh,
		merged:   merged,
	}
	co.ResultCache.lru.Put(key, next, estimateSize(key, merged), 0)
	return next.clipped(), nil
}
