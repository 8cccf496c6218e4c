package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fleetsim runs the command in-process and fails the test on an exit code
// other than want.
func fleetsim(t *testing.T, want int, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != want {
		t.Fatalf("fleetsim %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, want, out.String(), errOut.String())
	}
	return out.String(), errOut.String()
}

// TestFleetReproducesRecord pins every scenario of the fleet suite: the
// committed BENCH_fleet.json is what seed 1 produces, byte for byte, and
// every win condition holds.
func TestFleetReproducesRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	fleetsim(t, 0, "-json", path, "fleet")
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("fleet diverges from BENCH_fleet.json at line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("fleet has %d lines, BENCH_fleet.json %d", len(g), len(w))
}

// TestNoPlanAfterTheRun: once the stream is exhausted and the last request
// served, no autoscaler tick plans again, so every pool of the ramp's planner
// arms plans only inside the run it sizes: from the first arrival to the end
// Duration measures.
func TestNoPlanAfterTheRun(t *testing.T) {
	for _, a := range rampScenario.arms {
		if !a.plan {
			continue
		}
		start := math.Inf(1)
		for _, r := range a.traffic(1) {
			start = math.Min(start, r.ArrivalTime)
		}
		_, c := serve(a, 1, nil, nil)
		end := start + c.Duration()
		for i := 0; i < c.NumPools(); i++ {
			hist := c.Pool(i).PlanHistory()
			if len(hist) == 0 {
				t.Fatalf("%s pool %d never planned", a.mode, i)
			}
			if last := hist[len(hist)-1].At; last > end {
				t.Fatalf("%s pool %d: last plan sample at %.2f s, after the run's end at %.2f s", a.mode, i, last, end)
			}
		}
	}
}

// TestTracedFaultsMatchUntraced holds the recorder to being a strict
// observer: the fault storm with every export armed reports the same rows
// and prints the same stdout as without.
func TestTracedFaultsMatchUntraced(t *testing.T) {
	dir := t.TempDir()
	off := filepath.Join(dir, "off.json")
	on := filepath.Join(dir, "on.json")
	offOut, _ := fleetsim(t, 0, "-json", off, "faults")
	onOut, _ := fleetsim(t, 0, "-json", on,
		"-trace", filepath.Join(dir, "trace.json"), "-spans", filepath.Join(dir, "spans.csv"),
		"-timeseries", filepath.Join(dir, "ts.csv"), "faults")
	if onOut != offOut {
		t.Errorf("traced stdout differs:\n%s\nuntraced:\n%s", onOut, offOut)
	}
	a, err := os.ReadFile(off)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(on)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("traced rows differ from untraced rows")
	}
	for _, f := range []string{"trace.json", "spans.csv", "ts.csv"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", f, err)
		}
	}
}

var update = flag.Bool("update", false, "re-record testdata/traces.golden")

// traceScenarios are the scenarios whose recorded output traces.golden pins:
// a crash storm with recovery on a shedding disaggregated fleet, chunked long
// prompts, cached multi-turn prefixes, and three fleets whose replicas hold
// admission rounds that admit nothing — a ramp, an overload and mixed GPUs.
var traceScenarios = []string{"faults", "longctx", "multiturn", "ramp", "overload", "hetero"}

// TestRecordedOutputMatchesGolden pins what the recorder sees, not only what
// the run reports: every export of each trace scenario at seed 1 hashes to the
// line testdata/traces.golden holds for it. Re-record it with
// `go test ./cmd/fleetsim -run TestRecordedOutputMatchesGolden -update` only
// for a change meant to move a recorded event.
func TestRecordedOutputMatchesGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range traceScenarios {
		dir := t.TempDir()
		files := []string{"trace.json", "spans.csv", "timeseries.csv"}
		fleetsim(t, 0, "-trace", filepath.Join(dir, files[0]), "-spans", filepath.Join(dir, files[1]),
			"-timeseries", filepath.Join(dir, files[2]), s)
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %s %x %d\n", s, f, sha256.Sum256(data), len(data))
		}
	}
	path := filepath.Join("testdata", "traces.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("recorded output differs from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}

func TestUnknownScenarioListsValidNames(t *testing.T) {
	_, stderr := fleetsim(t, 2, "nope")
	for _, name := range append(fleetSuite, "router", "scale", "fleet") {
		if !strings.Contains(stderr, name) {
			t.Errorf("usage error does not name %q:\n%s", name, stderr)
		}
	}
}

// TestRouterScenarioWins holds the §7 routing study to its win conditions.
func TestRouterScenarioWins(t *testing.T) {
	fleetsim(t, 0, "router")
}

// TestScaleRecordIsCurrent holds the committed BENCH_scale.json to the
// scenario that writes it: the same fields, and the same day, fleet and
// repeat count as the constants. Its timings depend on the host and are not
// checked.
func TestScaleRecordIsCurrent(t *testing.T) {
	f, err := os.Open("../../BENCH_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var got scaleResult
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCH_scale.json is not a scale record: %v", err)
	}
	if got.Requests != dayRequests || got.Replicas != dayReplicas || got.Capacity != capacity ||
		got.PeakRate != dayPeak || got.Repeat != dayRepeats {
		t.Errorf("BENCH_scale.json records %+v; the scenario runs %d requests on %d replicas (cap %d, peak %v req/s, %d repeats): re-record it with make bench-scale",
			got, dayRequests, dayReplicas, capacity, dayPeak, dayRepeats)
	}
}
