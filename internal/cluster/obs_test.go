package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
)

// stormFaults is the fault-storm config the observability tests run under:
// the scripted + stochastic storm of the conservation sweep, with recovery,
// background wire flakiness, and everything else the recorder must survive.
func stormFaults(seed uint64) *FaultConfig {
	return &FaultConfig{
		Schedule:     stormSchedule(seed),
		Recover:      true,
		LinkFailRate: 0.02,
		Seed:         seed,
	}
}

// TestRecorderDisabledEquivalence pins the observability layer's zero-cost
// contract the same way the fault layer pinned its own: a cluster running
// the full fault storm with a Collector attached makes bit-identical
// decisions — routing, plans, sheds, handoff bookings, and the rolled-up
// report — to the identical cluster with a nil recorder, across seeds. The
// recorder only samples at execution points the simulator already visits
// and never pushes heap events, so tracing a run cannot change it.
func TestRecorderDisabledEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			compareTraces(t, "traced",
				runSeamScenario(seed, stormFaults(seed), obs.NewCollector(1)),
				runSeamScenario(seed, stormFaults(seed)))
		})
	}
}

// TestFaultStormObservability is the integration pin for the whole layer: a
// fault-storm run records a span for every arrival, the per-stage durations
// of every span sum exactly to its TTFT (the decomposition invariant), the
// span CSV round-trips, the interval rollup accounts for the storm, and the
// Perfetto export is valid trace-event JSON carrying slices, instants, and
// handoff flows.
func TestFaultStormObservability(t *testing.T) {
	col := obs.NewCollector(1)
	runSeamScenario(3, stormFaults(3), col)

	spans := col.Spans()
	if len(spans) == 0 {
		t.Fatal("storm run assembled no spans")
	}
	if err := col.CheckDecomposition(1e-6); err != nil {
		t.Fatal(err)
	}
	sawRetry, sawShed := false, false
	for _, s := range spans {
		if s.R.Retries > 0 {
			sawRetry = true
		}
		if s.ShedWhere != "" {
			sawShed = true
		}
	}
	if !sawRetry || !sawShed {
		t.Fatalf("storm exercised too little: retries=%v sheds=%v", sawRetry, sawShed)
	}

	var spanCSV bytes.Buffer
	if err := col.WriteSpanCSV(&spanCSV); err != nil {
		t.Fatal(err)
	}
	rows, err := obs.ReadSpanCSV(bytes.NewReader(spanCSV.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(spans) {
		t.Fatalf("span CSV round-trip: %d rows, %d spans", len(rows), len(spans))
	}
	for _, r := range rows {
		if r.TTFT < 0 {
			continue
		}
		if r.Retries == 0 {
			if d := r.StageSum() - r.TTFT; d > 1e-6 || d < -1e-6 {
				t.Fatalf("request %d: CSV stage sum %.9f != ttft %.9f", r.ID, r.StageSum(), r.TTFT)
			}
		}
	}

	tsRows := col.Rows()
	if len(tsRows) == 0 {
		t.Fatal("storm run produced no rollup rows")
	}
	var crashes, recoveries, xferFails int
	for _, r := range tsRows {
		crashes += r.Crashes
		recoveries += r.Recoveries
		xferFails += r.XferFails
	}
	if crashes == 0 || recoveries == 0 || xferFails == 0 {
		t.Fatalf("rollup missed the storm: crashes=%d recoveries=%d xfer_fails=%d",
			crashes, recoveries, xferFails)
	}

	var trace bytes.Buffer
	if err := col.WritePerfetto(&trace); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &parsed); err != nil {
		t.Fatalf("Perfetto export is not valid JSON: %v", err)
	}
	phases := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph] = true
	}
	for _, want := range []string{"M", "X", "i", "s", "f"} {
		if !phases[want] {
			t.Fatalf("Perfetto export lacks ph=%q events (have %v)", want, phases)
		}
	}
}

// TestRecorderNilRouteZeroAllocs pins the recorder-disabled routing hot
// path: with no recorder attached, the admission arrive→place cycle of a
// warm cluster allocates nothing per request beyond the pre-storm baseline
// (the heap storage is retained, the probe path reuses estimators, and
// every emission site is a nil check).
func TestRecorderNilRouteZeroAllocs(t *testing.T) {
	c := admissionCluster(2, 2, 50_000, 1, &AdmissionConfig{TTFTBudget: 100}, nil)
	warm := poissonReqs(200, 40, 7)
	c.Serve(warm, 1e9)

	a := c.adm
	r := request.New(int64(9_999), 400, 200, 256, c.endAt)
	a.arrive(c.endAt, r)
	allocs := testing.AllocsPerRun(200, func() {
		// The same request object re-arrives: tryPlace probes every replica
		// (the routing hot path) and places or holds; a held request is
		// drained by retry. Engine submission appends to warm queue storage.
		a.shedExpired(c.endAt)
		if a.tryPlace(c.endAt, r) {
			return
		}
	})
	if allocs != 0 {
		t.Fatalf("recorder-disabled admission/route path allocates %v per op, want 0", allocs)
	}
}
