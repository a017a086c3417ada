package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
)

// contract is the part of BENCHMARK.json the benchmark must honour.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// brief runs one workload for a fraction of a second.
func brief(t *testing.T, workload string, trace, corrupt bool) *result {
	t.Helper()
	dir := t.TempDir()
	res, err := run(options{
		workload: workload, seed: 3, seconds: 0.4, trace: trace, corrupt: corrupt,
		dir: dir, traceOut: dir + "/spans.jsonl", commit: "test", setups: 1,
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: no op attempted", workload)
	}
	return res
}

// TestMetricsNamedWithUnits checks that every workload emits exactly the
// metrics BENCHMARK.json names, each with its unit: end-to-end ones
// untraced, per-layer ones traced. Write-mix, which BENCHMARK.json does
// not list, also emits the write-only per-layer metrics.
func TestMetricsNamedWithUnits(t *testing.T) {
	c := readContract(t)
	gated := map[string]bool{}
	for _, w := range c.Workloads {
		gated[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range c.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range c.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res := brief(t, w, trace, false)
			if gated[w] && !res.Correct {
				t.Errorf("%s trace=%v: %d of %d ops failed", w, trace, res.Failed, res.Attempted)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok && (gated[w] || !slices.Contains(writeOnly, name)) {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w, trace, name)
				}
			}
			if trace && !gated[w] {
				for _, name := range writeOnly {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("%s: write metric %s missing", w, name)
					}
				}
			}
		}
	}
}

// TestCountsRepeat checks that the message counts of the single-answer
// workloads depend only on the seed.
func TestCountsRepeat(t *testing.T) {
	for _, w := range []string{"q7", "scan"} {
		a, b := brief(t, w, false, false), brief(t, w, false, false)
		for _, name := range []string{"requests_per_op", "wire_bytes_per_op"} {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s %v then %v with the same seed", w, name,
					a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

// TestCorruptedBaselineCaught proves the verification is live: with
// every expected answer damaged after set-up, every op that reads fails.
func TestCorruptedBaselineCaught(t *testing.T) {
	for _, w := range workloadNames() {
		res := brief(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted baseline went unnoticed (%d of %d ops failed)", w, res.Failed, res.Attempted)
		}
		// write-mix writes are checked only for faults; every other op
		// is a read checked against the baseline
		if w != "write-mix" && res.Failed != res.Attempted {
			t.Errorf("%s: %d of %d ops failed against a corrupted baseline", w, res.Failed, res.Attempted)
		}
	}
}
