package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one traffic mix: how many closed-loop clients drive it and
// how to build a fresh, verified, warmed-up deployment for it.
type workload struct {
	name    string
	clients int
	// setup builds an instance from seed; dir is the run's scratch
	// directory (WAL files), tr is non-nil in a traced run.
	setup func(seed int64, dir string, tr *tracer) (instance, error)
}

// instance is one set-up deployment of a workload.
type instance interface {
	// op runs one operation for client c and checks its answer. It
	// returns the time spent inside the program, which leaves out the
	// benchmark's own work of building the request and checking the
	// answer; an error (transport, fault, abort or wrong answer) fails
	// the op.
	op(c *clientState) (time.Duration, error)
	// counters snapshots the cumulative counters the program exports
	// (traffic, served calls, caches, planner, WAL). Called only while
	// no op is in flight.
	counters() counters
	// corrupt damages every expected answer (see options.corrupt).
	corrupt()
	// release drops the benchmark's own data (expected answers, response
	// buffers), so that the live heap read after it is the deployment's.
	release()
	close() error
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// counters is a snapshot of cumulative counts by name.
type counters map[string]float64

func (a counters) sub(b counters) counters {
	out := counters{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// clientState is one closed-loop client: its own seeded request stream
// and its own samples, touched only by its goroutine.
type clientState struct {
	id      int
	rng     *rand.Rand
	opID    int64
	ops     int64
	failed  int64
	lat     []time.Duration
	done    []time.Duration // completion of each op, from the window's start
	classes map[string][]time.Duration
}

// newClient is client id with its request stream seeded by seed.
func newClient(id int, seed int64) *clientState {
	return &clientState{id: id, rng: rand.New(rand.NewSource(seed)), classes: map[string][]time.Duration{}}
}

// sample records a timing of one kind of sub-operation (a q7 rewrite, a
// write-mix read or write).
func (c *clientState) sample(class string, d time.Duration) {
	c.classes[class] = append(c.classes[class], d)
}

// runStats is what one measured window produced.
type runStats struct {
	ops, failed int64
	// planned is the measured duration asked for; elapsed also covers
	// the ops in flight at its end.
	planned, elapsed time.Duration
	clients          []*clientState
	delta            counters
	// steal is the host's stolen share of CPU time in each of the
	// windows slices (nil where the host does not report it).
	steal []float64
}

var nextOpID atomic.Int64

// measure drives inst with the given number of closed-loop clients for d:
// each client sends its next op only after the previous one returned.
func measure(inst instance, clients int, seed int64, d time.Duration) *runStats {
	before := inst.counters()
	states := make([]*clientState, clients)
	for i := range states {
		states[i] = newClient(i, seed*7919+int64(i))
	}
	start := time.Now()
	deadline := start.Add(d)
	var steal []float64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		steal = sampleSteal(start, d)
	}()
	var wg sync.WaitGroup
	for _, cs := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				cs.opID = nextOpID.Add(1)
				took, err := inst.op(cs)
				cs.lat = append(cs.lat, took)
				cs.done = append(cs.done, time.Since(start))
				cs.ops++
				if err != nil {
					cs.failed++
					if cs.failed <= 3 {
						fmt.Fprintf(os.Stderr, "client %d op %d failed: %v\n", cs.id, cs.opID, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	sampler.Wait()
	rs := &runStats{planned: d, elapsed: time.Since(start), clients: states, steal: steal}
	rs.delta = inst.counters().sub(before)
	for _, cs := range states {
		rs.ops += cs.ops
		rs.failed += cs.failed
	}
	return rs
}

// windows is how many equal slices of a run the timing metrics are taken
// over: each metric is computed per slice and the median slice reported,
// so a stall confined to a few slices (a busy neighbour on the host, a
// burst of GC assists) does not decide the run's figure.
const windows = 10

// maxSteal is the share of CPU time the hypervisor may steal in a slice
// before the slice no longer measures this program: such slices are left
// out, as long as at least half the slices remain.
const maxSteal = 0.02

// windowed is the run's timing per slice.
type windowed struct {
	p50, p90, throughput []float64
	stolen               int // slices left out for host steal
}

// windowStats cuts the run into windows slices by op completion time.
// A slice's throughput is its ops over the time the program took for
// them (clients × ops / summed latency): in a closed loop that is the
// completion rate without the benchmark's own per-op work, and without
// the rounding of counting whole ops in a slice that holds only a few.
func (rs *runStats) windowStats() windowed {
	slices := make([][]float64, windows)
	width := rs.planned / windows
	for _, cs := range rs.clients {
		for i, d := range cs.lat {
			k := min(int(cs.done[i]/width), windows-1)
			slices[k] = append(slices[k], ms(d))
		}
	}
	var w windowed
	skip := make([]bool, windows)
	for k, s := range rs.steal {
		if s > maxSteal {
			skip[k] = true
			w.stolen++
		}
	}
	if w.stolen > windows/2 {
		skip, w.stolen = make([]bool, windows), 0
	}
	for k, s := range slices {
		if len(s) == 0 || skip[k] {
			continue
		}
		sort.Float64s(s)
		var busy float64
		for _, v := range s {
			busy += v
		}
		w.p50 = append(w.p50, quantile(s, 0.5))
		w.p90 = append(w.p90, quantile(s, 0.90))
		w.throughput = append(w.throughput, float64(len(rs.clients)*len(s))/(busy/1000))
	}
	return w
}

// latencies returns every op latency in milliseconds, sorted.
func (rs *runStats) latencies() []float64 {
	var out []float64
	for _, cs := range rs.clients {
		for _, d := range cs.lat {
			out = append(out, ms(d))
		}
	}
	sort.Float64s(out)
	return out
}

// class returns the sorted millisecond samples of one sub-operation kind.
func (rs *runStats) class(name string) []float64 {
	var out []float64
	for _, cs := range rs.clients {
		for _, d := range cs.classes[name] {
			out = append(out, ms(d))
		}
	}
	sort.Float64s(out)
	return out
}

func (rs *runStats) result(m map[string]metric) *result {
	return &result{Correct: rs.failed == 0, Attempted: rs.ops, Failed: rs.failed, Metrics: m}
}

func mergeResults(a, b *runStats, m map[string]metric) *result {
	return &result{
		Correct:   a.failed == 0 && b.failed == 0,
		Attempted: a.ops + b.ops,
		Failed:    a.failed + b.failed,
		Metrics:   m,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile interpolates the q-quantile of sorted values (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// goStats is the Go runtime's view of the process: allocation, GC and
// CPU time.
type goStats struct {
	allocBytes, mallocs float64
	gcCPU, totalCPU     float64 // runtime/metrics CPU classes, seconds
	procCPU             float64 // user+system time of the process, seconds
}

func (a goStats) sub(b goStats) goStats {
	return goStats{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs,
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.procCPU - b.procCPU}
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return goStats{
		allocBytes: float64(ms.TotalAlloc),
		mallocs:    float64(ms.Mallocs),
		gcCPU:      samples[0].Value.Float64(),
		totalCPU:   samples[1].Value.Float64(),
		procCPU:    tv(ru.Utime) + tv(ru.Stime),
	}
}

// plainLayerMetrics are the per-layer numbers taken from the untraced
// half of a traced run: Go runtime costs (which the tracing shims would
// inflate) and the per-kind medians of the sub-operations.
func plainLayerMetrics(rs *runStats, g goStats) map[string]metric {
	ops := float64(rs.ops)
	m := map[string]metric{
		"op.p99_ms":             {quantile(rs.latencies(), 0.99), "ms"},
		"go.alloc_bytes_per_op": {g.allocBytes / ops, "bytes"},
		"go.mallocs_per_op":     {g.mallocs / ops, "count"},
		"go.gc_cpu_share":       {safeDiv(g.gcCPU, g.totalCPU), "ratio"},
		"go.cpu_ms_per_op":      {g.procCPU * 1000 / ops, "ms"},
	}
	for _, c := range []string{"ship", "pushdown", "relocate", "semijoin"} {
		m["op."+c+"_p50_ms"] = metric{quantile(rs.class(c), 0.5), "ms"}
	}
	for _, c := range []string{"read", "write"} {
		s := rs.class(c)
		m["op."+c+"_p50_ms"] = metric{quantile(s, 0.5), "ms"}
		m["op."+c+"_p99_ms"] = metric{quantile(s, 0.99), "ms"}
	}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// references memoizes the unsharded reference answers: they depend only
// on the seed, so the repeated set-ups of a run share them. Computing
// them is verification, not set-up work, so referenceTime is left out
// of setup_s.
var (
	references    = map[string]any{}
	referenceTime time.Duration
)

func reference[T any](key string, f func() (T, error)) (T, error) {
	if v, ok := references[key]; ok {
		return v.(T), nil
	}
	t0 := time.Now()
	v, err := f()
	referenceTime += time.Since(t0)
	if err == nil {
		references[key] = v
	}
	return v, err
}

// sampleSteal returns the host's stolen share of CPU time in each of the
// windows slices of the d after start, read from the cpu line of
// /proc/stat; nil where that is not available.
func sampleSteal(start time.Time, d time.Duration) []float64 {
	prevTotal, prevSteal, ok := hostSteal()
	if !ok {
		return nil
	}
	out := make([]float64, 0, windows)
	for k := 1; k <= windows; k++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(k) / windows)))
		total, steal, ok := hostSteal()
		if !ok {
			return nil
		}
		out = append(out, safeDiv(float64(steal-prevSteal), float64(total-prevTotal)))
		prevTotal, prevSteal = total, steal
	}
	return out
}

// hostSteal reads the cumulative total and stolen CPU ticks of the host.
func hostSteal() (total, steal int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
	}
	steal, _ = strconv.ParseInt(f[8], 10, 64)
	return total, steal, true
}
