package main

import (
	"sort"
	"time"

	"xrpc/internal/soap"
)

// union is the total length of the intervals, clipped to [lo, hi].
func union(iv [][2]int64, lo, hi int64) int64 {
	var clipped [][2]int64
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e > s {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curS, curE int64
	open := false
	for _, v := range clipped {
		if open && v[0] <= curE {
			curE = max(curE, v[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = v[0], v[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

func nsToMs(ns float64) float64 { return ns / 1e6 }

// writeOnly are the per-layer metrics that only a workload that writes
// measures. A run without writes leaves them out rather than report a 0
// that no change could move.
var writeOnly = []string{
	"txn.update_ms", "txn.self_ms", "txn.wsat_requests_per_write",
	"wal.fsyncs_per_write", "wal.fsync_ms", "wal.bytes_per_write",
	"netsim.wsat_requests_per_op",
	"op.read_p50_ms", "op.read_p99_ms", "op.write_p50_ms", "op.write_p99_ms",
}

// layerMetrics computes the per-layer numbers of a traced window from
// its spans and from the deltas of the program's own counters.
func layerMetrics(spans []span, tr *tracer, rs *runStats, d counters) map[string]metric {
	ops := float64(rs.ops)
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// children indexes spans by parent; handler spans by op.
	children := map[int][]int{}
	handlers := map[int64][]int{}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
		if spans[i].Name == "server.handle" {
			handlers[spans[i].Op] = append(handlers[spans[i].Op], i)
		}
	}

	// pathfinder and client (q7): compile, evaluation self time and
	// allocations, and the Bulk RPC / document fetch children.
	var compile, evalSelf, evalAllocs, docFetch, bulkCall float64
	var shipLayers []float64
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "pathfinder.compile":
			compile += float64(s.dur())
		case "client.doc_fetch":
			docFetch += float64(s.dur())
		case "client.bulk_call":
			bulkCall += float64(s.dur())
		case "pathfinder.eval":
			var iv [][2]int64
			allocs := s.Allocs
			for _, c := range children[i] {
				iv = append(iv, [2]int64{spans[c].Start, spans[c].End})
				allocs -= spans[c].Allocs
			}
			evalSelf += float64(s.dur() - union(iv, s.Start, s.End))
			evalAllocs += float64(allocs)
		case "q7.ship":
			// the layers of one data-shipping evaluation: compile, eval
			// self time and its document fetches
			var sum int64
			for _, c := range children[i] {
				cs := &spans[c]
				switch cs.Name {
				case "pathfinder.compile":
					sum += cs.dur()
				case "pathfinder.eval":
					var iv [][2]int64
					for _, g := range children[c] {
						iv = append(iv, [2]int64{spans[g].Start, spans[g].End})
						if spans[g].Name == "client.doc_fetch" {
							sum += spans[g].dur()
						}
					}
					sum += cs.dur() - union(iv, cs.Start, cs.End)
				}
			}
			shipLayers = append(shipLayers, nsToMs(float64(sum)))
		}
	}
	set("pathfinder.compile_ms", nsToMs(compile)/ops, "ms")
	set("pathfinder.eval_self_ms", nsToMs(evalSelf)/ops, "ms")
	set("pathfinder.eval_allocs", evalAllocs/ops, "count")
	set("client.doc_fetch_ms", nsToMs(docFetch)/ops, "ms")
	set("client.bulk_call_ms", nsToMs(bulkCall)/ops, "ms")
	set("q7.ship_layers_ms", median(shipLayers), "ms")

	set("wrapper.compile_ms", nsToMs(d["wrapper.compile_ns"])/ops, "ms")
	set("wrapper.treebuild_ms", nsToMs(d["wrapper.treebuild_ns"])/ops, "ms")
	set("wrapper.exec_ms", nsToMs(d["wrapper.exec_ns"])/ops, "ms")

	// server and soap: handler spans on every traced peer.
	busy := map[string]float64{}
	var handle, in, out, nHandled float64
	kinds := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		if s.Name != "server.handle" {
			continue
		}
		handle += float64(s.dur())
		busy[s.Peer] += float64(s.dur())
		in += float64(s.In)
		out += float64(s.Out)
		nHandled++
		kinds[s.Kind]++
	}
	set("server.handle_ms", nsToMs(handle)/ops, "ms")
	set("server.calls_per_op", d["server.calls"]/ops, "count")
	var maxBusy float64
	for _, b := range busy {
		maxBusy = max(maxBusy, b)
	}
	if len(busy) > 0 {
		mean := handle / float64(len(busy))
		set("server.busy_share", handle/(float64(len(busy))*float64(rs.elapsed)), "ratio")
		set("server.shard_skew", safeDiv(maxBusy, mean), "ratio")
	} else {
		set("server.busy_share", 0, "ratio")
		set("server.shard_skew", 0, "ratio")
	}
	set("server.plancache_hit_ratio",
		safeDiv(d["plancache.hits"], d["plancache.hits"]+d["plancache.misses"]), "ratio")
	set("soap.request_bytes_per_call", safeDiv(in, nHandled), "bytes")
	set("soap.response_bytes_per_call", safeDiv(out, nHandled), "bytes")
	dec, enc := soapCosts(tr)
	set("soap.decode_ns_per_byte", dec, "ns/byte")
	set("soap.encode_ns_per_byte", enc, "ns/byte")

	set("netsim.user_requests_per_op", kinds["user"]/ops, "count")
	set("netsim.system_requests_per_op", kinds["system"]/ops, "count")
	set("netsim.wsat_requests_per_op", kinds["wsat"]/ops, "count")
	set("netsim.bytes_sent_per_op", d["netsim.sent"]/ops, "bytes")
	set("netsim.bytes_received_per_op", d["netsim.received"]/ops, "bytes")

	// cluster and txn: the proxy span of each op minus the part of it
	// its shard handler spans (matched by trace ID) cover.
	var readSelf, readN, fanout, firstByte, writeSpan, writeSelf, writeN float64
	for i := range spans {
		s := &spans[i]
		if s.Name != "cluster.proxy" {
			continue
		}
		var iv [][2]int64
		peers := map[string]bool{}
		for _, h := range handlers[s.Op] {
			iv = append(iv, [2]int64{spans[h].Start, spans[h].End})
			if spans[h].Kind == "user" {
				peers[spans[h].Peer] = true
			}
		}
		self := float64(s.dur() - union(iv, s.Start, s.End))
		if s.Kind == "write" {
			writeSpan += float64(s.dur())
			writeSelf += self
			writeN++
			continue
		}
		readSelf += self
		readN++
		fanout += float64(len(peers))
		firstByte += float64(s.First)
	}
	set("cluster.self_ms", nsToMs(safeDiv(readSelf, readN)), "ms")
	set("cluster.fanout_shards", safeDiv(fanout, readN), "count")
	set("cluster.first_byte_ms", nsToMs(safeDiv(firstByte, readN)), "ms")
	set("txn.update_ms", nsToMs(safeDiv(writeSpan, writeN)), "ms")
	set("txn.self_ms", nsToMs(safeDiv(writeSelf, writeN)), "ms")
	set("txn.wsat_requests_per_write", safeDiv(kinds["wsat"], writeN), "count")

	rcAll := d["resultcache.hits"] + d["resultcache.partial"] + d["resultcache.misses"]
	set("resultcache.hit_ratio", safeDiv(d["resultcache.hits"], rcAll), "ratio")
	set("respcache.hit_ratio",
		safeDiv(d["respcache.hits"], d["respcache.hits"]+d["respcache.misses"]), "ratio")
	set("respcache.evictions_per_op", d["respcache.evictions"]/ops, "count")

	// no workload sends a call that several but not all shards may
	// answer, so the pruned share is left out: routed and broadcast
	// shares add up to 1 unless that changes
	strat := d["planner.routed"] + d["planner.pruned"] + d["planner.broadcast"]
	set("planner.routed_share", safeDiv(d["planner.routed"], strat), "ratio")
	set("planner.broadcast_share", safeDiv(d["planner.broadcast"], strat), "ratio")

	writes := d["ops.writes"]
	set("wal.fsyncs_per_write", safeDiv(d["wal.fsyncs"], writes), "count")
	set("wal.fsync_ms", 1000*safeDiv(d["wal.fsync_s"], d["wal.fsyncs"]), "ms")
	set("wal.bytes_per_write", safeDiv(d["wal.bytes"], writes), "bytes")
	return m
}

// soapCosts times the public SOAP decoders and encoders on the messages
// the handler shims captured after the traced window, in ns per byte.
func soapCosts(tr *tracer) (decode, encode float64) {
	tr.mu.Lock()
	reqs := append([][]byte(nil), tr.reqs...)
	resps := append([][]byte(nil), tr.resps...)
	tr.mu.Unlock()
	const reps = 5
	var decNs, encNs, decBytes, encBytes float64
	for i := range reqs {
		if reqs[i] == nil || resps[i] == nil {
			continue
		}
		req, err := soap.DecodeRequest(reqs[i])
		if err != nil {
			continue
		}
		resp, err := soap.DecodeResponse(resps[i])
		if err != nil {
			continue // a fault envelope: not part of the data path
		}
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			_, _ = soap.DecodeRequest(reqs[i])
			_, _ = soap.DecodeResponse(resps[i])
		}
		decNs += float64(time.Since(t0))
		decBytes += float64(reps * (len(reqs[i]) + len(resps[i])))
		var n int
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			n += len(soap.EncodeRequest(req)) + len(soap.EncodeResponse(resp))
		}
		encNs += float64(time.Since(t0))
		encBytes += float64(n)
	}
	return safeDiv(decNs, decBytes), safeDiv(encNs, encBytes)
}
