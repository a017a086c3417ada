GO ?= go

.PHONY: build test vet race bench bench-smoke bench-cluster bench-wal fuzz-smoke memsmoke cachesmoke obssmoke crashsmoke plansmoke perfbench-test ci

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order so
# accidental inter-test dependencies surface in CI instead of in prod.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# race catches data races in the parallel bulk-execution pipeline, the
# cluster scatter-gather coordinator, and store snapshot isolation.
race:
	$(GO) test -race -shuffle=on ./...

# bench reproduces the sequential-vs-parallel bulk execution comparison
# (BenchmarkBulkExecParallel_* in bench_test.go).
bench:
	$(GO) test -run XXX -bench 'BenchmarkBulkExecParallel' -benchtime 50x .

# bench-smoke compiles and runs every benchmark exactly once so that
# benchmark code can never rot uncompiled (it is part of ci). This
# covers the algebra microbenchmarks, the cluster scatter-gather
# benchmarks — buffered (BenchmarkClusterScatter_*) and streamed
# (BenchmarkClusterScatterStream_*, the shard-order merge writing the
# merged envelope to a sink) — BenchmarkClusterShardedSemiJoin_*, the
# writable-cluster benchmarks (BenchmarkClusterRoutedUpdate_*,
# BenchmarkClusterPrunedProbe_*), the SOAP wire-path benchmarks incl.
# the pull-decoder stream walk (BenchmarkSoapDecodeResponseStream,
# BenchmarkSoapResponseStreamWalk), the document parser
# (BenchmarkParseDocument), and the paper-table benchmarks.
# Full sweep with peak-heap columns: xrpcbench -table cluster
# -cluster-json BENCH_cluster.json.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-cluster reproduces the scatter-gather sweep of
# `xrpcbench -table cluster` as go benchmarks.
bench-cluster:
	$(GO) test -run XXX -bench 'BenchmarkCluster' -benchtime 3x .

# fuzz-smoke gives the SOAP envelope decoders a short coverage-guided
# shake on every CI run: the buffered DOM-free decoder (FuzzDecode) and
# the incremental io.Reader decoder fed adversarially fragmented input
# (FuzzDecodeStream). Both targets share one corpus directory; patterns
# are anchored because `go test -fuzz` requires exactly one match.
# FuzzWALDecode shakes the write-ahead-log frame parser the same way
# (truncated, corrupted and torn inputs must never panic).
# FuzzParseDocument holds the document parser to encoding/xml: same
# accept/reject outcome and identical trees on every input.
# Run `go test -fuzz 'FuzzDecodeStream$$' ./internal/soap` for longer
# sessions.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz 'FuzzDecode$$' -fuzztime 5s -fuzzminimizetime 5s ./internal/soap
	$(GO) test -run=NONE -fuzz 'FuzzDecodeStream$$' -fuzztime 5s -fuzzminimizetime 5s ./internal/soap
	$(GO) test -run=NONE -fuzz 'FuzzWALDecode$$' -fuzztime 5s -fuzzminimizetime 5s ./internal/wal
	$(GO) test -run=NONE -fuzz 'FuzzParseDocument$$' -fuzztime 5s -fuzzminimizetime 5s ./internal/xdm

# memsmoke is the bounded-memory acceptance check of the streamed
# scatter-gather: under a 64 MiB GOMEMLIMIT the coordinator must merge
# a 256 MiB synthetic scan — 4x the memory cap — with its peak heap
# flat relative to the result size (O(shards × window), not O(result)).
memsmoke:
	GOMEMLIMIT=64MiB XRPC_MEMSMOKE_BYTES=268435456 \
		$(GO) test -run 'TestScatterStreamBoundedMemory' -v ./internal/cluster/

# cachesmoke is the three-tier cache acceptance check: a deployment
# with the shard response caches, the coordinator merged-result cache,
# and the compiled-plan caches all enabled must serve warm hits on both
# coordinator and shard tiers, and a routed single-shard 2PC commit
# must invalidate exactly the touched shard's entries — with every
# answer byte-identical to an unsharded single-peer execution. The full
# sweep with latency columns: xrpcbench -table cache -cache-json
# BENCH_cache.json.
cachesmoke:
	$(GO) test -run 'TestCacheSmoke' -v ./internal/cluster/

# obssmoke is the observability acceptance check: a 2-shard cached
# cluster with the full metrics/trace/slow-log layer attached, driven
# cold -> warm -> routed 2PC update -> post-write read, then scraped
# through the /metrics, /healthz and /readyz debug endpoints. Asserts
# the scatter, cache-tier and 2PC counters move at each stage and that
# one trace ID appears in both shards' slow-query logs.
obssmoke:
	$(GO) test -run 'TestObsSmoke' -v ./internal/cluster/

# bench-wal runs the durable-update acceptance pair: concurrent routed
# 2PC updates with and without a write-ahead log, the WAL on a tmpfs so
# the comparison measures the WAL code path (framing, group-commit
# coordination) rather than this machine's fsync hardware. The bar:
# WALConc within 15% of Conc. Unset XRPC_BENCH_WAL_DIR to include the
# real filesystem's flush latency instead.
bench-wal:
	XRPC_BENCH_WAL_DIR=$${XRPC_BENCH_WAL_DIR:-/dev/shm} \
		$(GO) test -run XXX -bench 'BenchmarkClusterRoutedUpdate(WAL)?Conc_P4' -benchtime 1600x .

# crashsmoke is the durability acceptance check: a live xrpcd with a
# write-ahead log is SIGKILL'd mid-update-storm and restarted with the
# same -wal-dir; every acknowledged commit must survive and a pre-crash
# committed read must come back byte-identical. XRPC_CRASHSMOKE_DIR
# points the WAL at a tmpfs (e.g. /dev/shm) so the fsync-heavy storm
# stays fast on CI runners.
crashsmoke:
	XRPC_CRASHSMOKE_DIR=$${XRPC_CRASHSMOKE_DIR:-/dev/shm} \
		$(GO) test -run 'TestXrpcdCrashRecovery' -count=1 -v ./internal/cluster/

# plansmoke is the self-driving-planner acceptance check: with ZERO
# hand-written RouteSpecs the coordinator must derive routes from the
# compiled module bodies (equality probes routed to one shard, Lex-keyed
# range scans pruned, underivable functions broadcast — never a wrong
# route), stay byte-identical to broadcast on every fixture, and fence
# its per-shard statistics on the (store version, registry generation)
# vector so commits and module re-registrations invalidate cached stats.
# The full sweep: xrpcbench -table planner -planner-json
# BENCH_planner.json.
plansmoke:
	$(GO) test -run 'TestPlanner' -v ./internal/cluster/
	$(GO) test -run 'TestDerivedRouteKeys|TestClusterWorkloadModuleIsUnderivable|TestPlannerBench' -v ./internal/bench/

# perfbench-test runs the repository benchmark's own checks: a short
# run of every workload with its answers verified (for q7, all four
# rewrites byte-identical), and damaged expected answers must fail. The
# benchmark is a module of its own, so `go test ./...` does not build it.
perfbench-test:
	$(GO) -C perfbench test .

ci: build vet race bench-smoke fuzz-smoke memsmoke cachesmoke obssmoke crashsmoke plansmoke perfbench-test
