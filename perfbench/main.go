// Command perfbench is the repository's benchmark: seeded, closed-loop
// workloads driven through the system's public entry points, with every
// operation's answer checked. See README.md for the workloads, the metric
// glossary and how to run it.
//
//	perfbench --workload probe --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end ones with --trace 0,
// per-layer ones with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// dir holds what a run writes: WAL directories and the span file.
	dir    string
	commit string
	// setups is how many times a run sets the workload up; setup_s is
	// their median.
	setups int
	// corrupt flips one byte of every expected answer after set-up, so
	// every verified op must fail: the test that proves verification is
	// live.
	corrupt bool
}

// defaultSetups is the set-up count of a run.
const defaultSetups = 5

func main() {
	o := options{setups: defaultSetups}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed (documents, request streams)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.dir, "work-dir", ".bench_build", "directory for WAL files and traces")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of the traced run (default <work-dir>/traces/<workload>-seed<n>.jsonl)")
	flag.StringVar(&o.commit, "commit", "unknown", "commit stamped into the environment line")
	flag.Parse()
	o.trace = traceFlag != 0
	if o.traceOut == "" {
		o.traceOut = filepath.Join(o.dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and returns its result; human-readable
// lines (environment, metrics by name) go to out.
func run(o options, out io.Writer) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 || o.setups < 1 {
		return nil, fmt.Errorf("--seconds must be positive and a run must set up at least once")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintln(out, envLine(o, w))

	var res *result
	var err error
	if o.trace {
		res, err = tracedRun(o, w)
	} else {
		res, err = plainRun(o, w, out)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "ops attempted=%d failed=%d\n", res.Attempted, res.Failed)
	return res, nil
}

// setupMedian sets the workload up o.setups times, closing all but the
// last instance, and returns that instance with the median set-up time.
func setupMedian(o options, w *workload, tr *tracer) (instance, float64, error) {
	var times []float64
	var inst instance
	refBefore := referenceTime
	for i := 0; i < o.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, err
			}
			inst = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		inst, err = w.setup(o.seed, o.dir, tr)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		wall := time.Since(start) - (referenceTime - refBefore)
		refBefore = referenceTime
		times = append(times, wall.Seconds())
	}
	if o.corrupt {
		inst.corrupt()
	}
	return inst, median(times), nil
}

// plainRun is the untraced run: every end-to-end metric.
func plainRun(o options, w *workload, out io.Writer) (*result, error) {
	inst, setupS, err := setupMedian(o, w, nil)
	if err != nil {
		return nil, err
	}
	defer closeInstance(inst)
	rs := measure(inst, w.clients, o.seed, secs(o.seconds))
	if rs.ops == 0 {
		return nil, fmt.Errorf("%s: no op completed in %.1fs", w.name, o.seconds)
	}
	lat := rs.latencies()
	ops := float64(rs.ops)
	win := rs.windowStats()
	m := map[string]metric{
		"setup_s":           {setupS, "s"},
		"throughput_ops_s":  {median(win.throughput), "ops/s"},
		"latency_p50_ms":    {median(win.p50), "ms"},
		"latency_p90_ms":    {median(win.p90), "ms"},
		"requests_per_op":   {rs.delta["wire.requests"] / ops, "count"},
		"wire_bytes_per_op": {rs.delta["wire.bytes"] / ops, "bytes"},
	}
	fmt.Fprintf(out, "whole run: %d ops, %.4g ops/s, p50 %.4g ms, p90 %.4g ms, p99 %.4g ms (%d samples beyond it); %d of %d slices left out for host steal\n",
		len(lat), ops/rs.elapsed.Seconds(), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99),
		len(lat)/100, win.stolen, windows)
	// the live heap is the deployment's, with its caches as the run left
	// them: the benchmark's own samples, expected answers and response
	// buffers are dropped first
	lat, rs.clients = nil, nil
	inst.release()
	clear(references)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["heap_live_mib"] = metric{float64(mem.HeapAlloc) / (1 << 20), "MiB"}
	return rs.result(m), nil
}

// tracedRun measures half the time untraced and half traced, each on its
// own set-up, and reports the per-layer metrics plus the overhead. The
// untraced half follows the same repeated set-ups as a plain run, so the
// process (its heap's pages above all) is as warm as in a plain run and
// as for the traced half that follows it.
func tracedRun(o options, w *workload) (*result, error) {
	half := secs(o.seconds / 2)

	inst, _, err := setupMedian(o, w, nil)
	if err != nil {
		return nil, err
	}
	g0 := readGoStats()
	plain := measure(inst, w.clients, o.seed, half)
	g1 := readGoStats()
	if err := inst.close(); err != nil {
		return nil, err
	}
	runtime.GC()

	tr := newTracer()
	o.setups = 1
	inst, _, err = setupMedian(o, w, tr)
	if err != nil {
		return nil, err
	}
	defer closeInstance(inst)
	tr.reset()
	traced := measure(inst, w.clients, o.seed, half)
	if plain.ops == 0 || traced.ops == 0 {
		return nil, fmt.Errorf("%s: no op completed in %.1fs", w.name, o.seconds/2)
	}
	spans := tr.snapshot()
	if err := writeSpans(spans, o.traceOut); err != nil {
		return nil, err
	}
	captureSample(inst, tr, w.clients, o.seed)

	m := layerMetrics(spans, tr, traced, traced.delta)
	for k, v := range plainLayerMetrics(plain, g1.sub(g0)) {
		m[k] = v
	}
	pt := float64(plain.ops) / plain.elapsed.Seconds()
	tt := float64(traced.ops) / traced.elapsed.Seconds()
	m["trace.overhead_share"] = metric{1 - tt/pt, "ratio"}
	m["trace.spans_per_op"] = metric{float64(len(spans)) / float64(traced.ops), "count"}
	if ship := m["op.ship_p50_ms"].Value; ship > 0 {
		m["q7.ship_unaccounted_share"] = metric{1 - m["q7.ship_layers_ms"].Value/ship, "ratio"}
	} else {
		m["q7.ship_unaccounted_share"] = metric{0, "ratio"}
	}
	if traced.delta["ops.writes"] == 0 {
		for _, name := range writeOnly {
			delete(m, name)
		}
	}
	return mergeResults(plain, traced, m), nil
}

// closeInstance closes an instance whose numbers are already taken: a
// failure (a WAL that will not close, a directory that will not go) is
// reported but does not void the run.
func closeInstance(inst instance) {
	if err := inst.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: close:", err)
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// captureSample runs captureCap more ops with message capture on, after
// the traced window. They only supply the messages the soap.* costs are
// timed on; their answers are not part of the run (every op of the
// window was checked), so an op that fails here is skipped.
func captureSample(inst instance, tr *tracer, clients int, seed int64) {
	tr.capturing.Store(true)
	defer tr.capturing.Store(false)
	states := make([]*clientState, clients)
	for i := range states {
		states[i] = newClient(i, seed+int64(i))
	}
	for n := 0; n < captureCap; n++ {
		cs := states[n%clients]
		_, _ = inst.op(cs) // see above: the sample needs messages, not answers
		cs.ops++
	}
}
