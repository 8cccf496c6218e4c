package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the definitions in this package")

// testScale is a hundredth of the benchmark's size: every workload still
// builds its whole fleet and walks every code path, in tens of milliseconds.
const testScale = 0.01

func testRunner(t *testing.T, name string, seed uint64) *runner {
	return scaledRunner(t, name, seed, testScale)
}

func scaledRunner(t *testing.T, name string, seed uint64, scale float64) *runner {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	if name == "serve-http" && runtime.NumCPU() < httpClients {
		t.Skipf("serve-http needs %d CPUs", httpClients)
	}
	return &runner{w: w, cfg: runConfig{seed: seed, scale: scale}, seconds: 0.01, log: io.Discard}
}

func values(res *result) map[string]float64 {
	out := map[string]float64{}
	for name, m := range res.Metrics {
		out[name] = m.Value
	}
	return out
}

// simNames are the end-to-end metrics read off the simulated clock and the
// program's counters, which one seed fixes on the deterministic workloads.
var simNames = []string{"goodput_tok_s", "sla_attainment", "ttft_p99_s", "prefill_tokens_per_request"}

func TestEndToEndRun(t *testing.T) {
	nameOK := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := testRunner(t, w.name, 1).endToEndRun()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct %v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("metric %s missing", d.name)
					continue
				}
				if m.Unit != d.unit {
					t.Errorf("metric %s has unit %q, declared %q", d.name, m.Unit, d.unit)
				}
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s = %v; an end-to-end metric is never 0", d.name, m.Value)
				}
			}
			for name := range res.Metrics {
				if !nameOK.MatchString(name) {
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", name)
				}
			}
			if !w.deterministic {
				return
			}
			again, err := testRunner(t, w.name, 1).endToEndRun()
			if err != nil {
				t.Fatal(err)
			}
			other, err := testRunner(t, w.name, 2).endToEndRun()
			if err != nil {
				t.Fatal(err)
			}
			a, b, c := values(res), values(again), values(other)
			differs := false
			for _, name := range simNames {
				if a[name] != b[name] {
					t.Errorf("%s: seed 1 gave %v then %v", name, a[name], b[name])
				}
				if a[name] != c[name] {
					differs = true
				}
			}
			if !differs {
				t.Errorf("seeds 1 and 2 gave identical simulated metrics: %v", a)
			}
		})
	}
}

func TestTracedRun(t *testing.T) {
	// Layers a workload bypasses report zero; storm-product is the one
	// workload where all five of these carry load.
	product := []string{"kv.prefix_hit_token_share", "kv.link_xfers", "cluster.held", "engine.chunks", "faults.crashes"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			scale := testScale
			if w.name == "storm-product" {
				scale = 0.05 // the ramp has to last long enough to pass the knee and hold arrivals
			}
			res, err := scaledRunner(t, w.name, 1, scale).tracedRun("")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct %v, %d of %d operations failed: the tracer must be a strict observer", res.Correct, res.Failed, res.Attempted)
			}
			v := values(res)
			if len(v) != len(perLayer) {
				t.Errorf("%d metrics reported, %d declared", len(v), len(perLayer))
			}
			for _, d := range perLayer {
				if _, ok := v[d.name]; !ok {
					t.Errorf("metric %s missing", d.name)
				}
			}
			for _, name := range []string{"engine.self_s", "cluster.other_s"} {
				if v[name] < 0 {
					t.Errorf("%s = %v, want non-negative", name, v[name])
				}
			}
			for _, name := range product {
				if w.name == "storm-product" && !(v[name] > 0) {
					t.Errorf("%s = %v on storm-product, want it to carry load", name, v[name])
				}
				if (w.name == "replay-day" || w.name == "engine-closed") && v[name] != 0 {
					t.Errorf("%s = %v on %s, which bypasses that layer", name, v[name], w.name)
				}
			}
			if (w.name == "replay-day" || w.name == "storm-product") && !(v["cluster.route_s"] > 0 && v["core.admit_s"] > 0 && v["workload.next_s"] > 0) {
				t.Errorf("a cluster replay spends time in the stream, routing and admission: %v %v %v",
					v["workload.next_s"], v["cluster.route_s"], v["core.admit_s"])
			}
		})
	}
}

func TestConserve(t *testing.T) {
	clean := []int64{10, 11, 12, 13}
	if m, d, u := conserve(4, 10, clean); m+d+u != 0 {
		t.Errorf("clean records: %d missing, %d duplicated, %d unknown", m, d, u)
	}
	// A request finished twice.
	if m, d, u := conserve(4, 10, []int64{10, 11, 12, 13, 12}); m != 0 || d != 1 || u != 0 {
		t.Errorf("request 12 finished twice: got %d missing, %d duplicated, %d unknown", m, d, u)
	}
	// A request with no outcome.
	if m, d, u := conserve(4, 10, []int64{10, 11, 13}); m != 1 || d != 0 || u != 0 {
		t.Errorf("request 12 has no outcome: got %d missing, %d duplicated, %d unknown", m, d, u)
	}
	// A record for a request that was never sent.
	if m, d, u := conserve(4, 10, []int64{10, 11, 12, 13, 99}); m != 0 || d != 0 || u != 1 {
		t.Errorf("record for unsent request 99: got %d missing, %d duplicated, %d unknown", m, d, u)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([3.1, 2.2, 5.5, 4.0, 1.0, 9.0, 7.7], n=4) is
	// [2.2, 4.0, 7.7]: (7.7 - 2.2) / 4.0.
	got := spread([]float64{3.1, 2.2, 5.5, 4.0, 1.0, 9.0, 7.7})
	if math.Abs(got-1.375) > 1e-12 {
		t.Errorf("spread = %v, want 1.375", got)
	}
}

// manifest is BENCHMARK.json as this package declares it.
func manifest() map[string]interface{} {
	var wl, e2e, layers []interface{}
	for _, w := range workloads {
		wl = append(wl, map[string]interface{}{"name": w.name, "why": w.why})
	}
	for _, d := range endToEnd {
		e2e = append(e2e, map[string]interface{}{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range perLayer {
		layers = append(layers, map[string]interface{}{"name": d.name, "unit": d.unit, "better": d.better})
	}
	return map[string]interface{}{
		"command":     []interface{}{"bash", "benchmark/run.sh"},
		"paths":       []interface{}{"benchmark"},
		"run_seconds": float64(runSeconds),
		"workloads":   wl,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}
}

func TestManifest(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := manifest()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]interface{}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s does not declare what this package measures; run go test ./benchmark -run TestManifest -update", path)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric name %s declared twice", d.name)
		}
		seen[d.name] = true
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", n)
	}
}
