package workload

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
)

func TestUniformRanges(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 5000; i++ {
		in, out := Distribution1.Sample(r)
		if in < 32 || in > 4096 {
			t.Fatalf("D1 input %d out of range", in)
		}
		if out < 2048 || out > 4096 {
			t.Fatalf("D1 output %d out of range", out)
		}
	}
}

func TestDistributionShapes(t *testing.T) {
	r := rng.New(2)
	avg := func(g Generator) (float64, float64) {
		var in, out float64
		const n = 5000
		for i := 0; i < n; i++ {
			a, b := g.Sample(r)
			in += float64(a)
			out += float64(b)
		}
		return in / n, out / n
	}
	in1, out1 := avg(Distribution1)
	if in1 >= out1 {
		t.Fatalf("D1 should be decode-heavy: in=%v out=%v", in1, out1)
	}
	in3, out3 := avg(Distribution3)
	if in3 <= out3 {
		t.Fatalf("D3 should be prefill-heavy: in=%v out=%v", in3, out3)
	}
}

func TestShareGPTO1IsDecodeHeavy(t *testing.T) {
	r := rng.New(3)
	var in, out float64
	const n = 20000
	for i := 0; i < n; i++ {
		a, b := ShareGPTO1.Sample(r)
		in += float64(a)
		out += float64(b)
	}
	in /= n
	out /= n
	// Paper: avg input 381, avg output 2160 — check the calibration is in
	// that ballpark (±40%).
	if in < 230 || in > 550 {
		t.Fatalf("ShareGPT-o1 mean input = %v, want ~380", in)
	}
	if out < 1300 || out > 3100 {
		t.Fatalf("ShareGPT-o1 mean output = %v, want ~2160", out)
	}
	if out < 4*in {
		t.Fatalf("ShareGPT-o1 not decode-heavy enough: in=%v out=%v", in, out)
	}
}

func TestTextVQAIncludesImageTokens(t *testing.T) {
	r := rng.New(4)
	gen := TextVQA(576)
	for i := 0; i < 1000; i++ {
		in, out := gen.Sample(r)
		if in < 576+8 {
			t.Fatalf("TextVQA input %d below image tokens + min question", in)
		}
		if out < 2 || out > 256 {
			t.Fatalf("TextVQA output %d out of range", out)
		}
	}
}

func TestConcatWalksParts(t *testing.T) {
	r := rng.New(5)
	c := &Concat{
		Label:   "mix",
		Parts:   []Generator{Uniform{Label: "a", InLo: 1, InHi: 1, OutLo: 10, OutHi: 10}, Uniform{Label: "b", InLo: 2, InHi: 2, OutLo: 20, OutHi: 20}},
		PerPart: 3,
	}
	var outs []int
	for i := 0; i < 7; i++ {
		_, out := c.Sample(r)
		outs = append(outs, out)
	}
	want := []int{10, 10, 10, 20, 20, 20, 20} // last part repeats at the end
	for i := range want {
		if outs[i] != want[i] {
			t.Fatalf("concat outputs = %v, want %v", outs, want)
		}
	}
}

func TestBuildAssignsIDsAndClass(t *testing.T) {
	r := rng.New(6)
	reqs := Build(ShareGPT, r, 10, 100, 2048)
	if len(reqs) != 10 {
		t.Fatalf("built %d", len(reqs))
	}
	for i, req := range reqs {
		if req.ID != int64(100+i) {
			t.Fatalf("id = %d", req.ID)
		}
		if req.Class != "ShareGPT" {
			t.Fatalf("class = %q", req.Class)
		}
		if req.MaxNewTokens != 2048 {
			t.Fatalf("maxNew = %d", req.MaxNewTokens)
		}
		if req.TrueOutputLen > 2048 {
			t.Fatal("output not clamped")
		}
	}
}

func TestPoissonArrivalsIncreaseMonotonically(t *testing.T) {
	r := rng.New(7)
	reqs := Build(ShareGPT, r, 100, 1, 2048)
	AssignPoissonArrivals(reqs, r, 10, 0)
	last := 0.0
	for _, req := range reqs {
		if req.ArrivalTime <= last {
			t.Fatalf("non-monotone arrivals at %v", req.ArrivalTime)
		}
		last = req.ArrivalTime
	}
	// Mean inter-arrival ~0.1 s → 100 requests over ~10 s.
	if last < 5 || last > 20 {
		t.Fatalf("last arrival %v, want ~10", last)
	}
}

func TestPoissonRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate did not panic")
		}
	}()
	AssignPoissonArrivals(nil, rng.New(1), 0, 0)
}

func TestTraceStableVsDrifting(t *testing.T) {
	r := rng.New(8)
	const n = 30_000
	conv := BurstGPTConv.Lengths(r, n)
	api := BurstGPTAPI.Lengths(r, n)

	mConv := WindowSimilarityMatrix(conv, 1000)
	mAPI := WindowSimilarityMatrix(api, 1000)

	convDiag, convGlobal := DiagonalMean(mConv), GlobalMean(mConv)
	apiDiag, apiGlobal := DiagonalMean(mAPI), GlobalMean(mAPI)

	// Paper Figure 3: adjacent windows are similar on every trace…
	if convDiag < 0.85 {
		t.Fatalf("conversation diagonal similarity %v too low", convDiag)
	}
	if apiDiag < 0.75 {
		t.Fatalf("API diagonal similarity %v too low", apiDiag)
	}
	// …and the API trace's distant windows diverge while conversation's
	// stay similar.
	if convGlobal < 0.8 {
		t.Fatalf("conversation global similarity %v too low", convGlobal)
	}
	if apiGlobal >= convGlobal {
		t.Fatalf("API global %v should be below conversation global %v", apiGlobal, convGlobal)
	}
	if apiDiag <= apiGlobal+0.05 {
		t.Fatalf("API diagonal %v should clearly exceed its global %v", apiDiag, apiGlobal)
	}
}

func TestAllFigure3TracesHaveHighDiagonal(t *testing.T) {
	r := rng.New(9)
	for _, tr := range Figure3Traces() {
		lengths := tr.Lengths(r.Split(), 20_000)
		m := WindowSimilarityMatrix(lengths, 1000)
		if d := DiagonalMean(m); d < 0.7 {
			t.Errorf("%s diagonal similarity %v < 0.7", tr.Label, d)
		}
	}
}

func TestWindowSimilarityMatrixShape(t *testing.T) {
	lengths := make([]int, 3500)
	for i := range lengths {
		lengths[i] = 100
	}
	m := WindowSimilarityMatrix(lengths, 1000)
	if len(m) != 3 {
		t.Fatalf("windows = %d, want 3 (trailing partial dropped)", len(m))
	}
	for i := range m {
		if m[i][i] < 0.999 {
			t.Fatalf("self-similarity %v", m[i][i])
		}
	}
}

func TestPairSimilarityIdenticalDistribution(t *testing.T) {
	r := rng.New(10)
	lengths := make([]int, 20_000)
	for i := range lengths {
		lengths[i] = int(r.LogNormal(5, 0.5))
	}
	diag, global := PairSimilarity(lengths, 1000, 500)
	// Stationary source: both should be high and close.
	if diag < 0.9 || global < 0.9 {
		t.Fatalf("stationary similarities too low: diag=%v global=%v", diag, global)
	}
}

func TestPairSimilarityPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad sizes did not panic")
		}
	}()
	PairSimilarity([]int{1, 2, 3}, 0, 5)
}

func TestClosedLoopMaintainsConcurrency(t *testing.T) {
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	e := engine.MustNew(engine.Config{
		Perf:             pm,
		Scheduler:        core.NewOracle(),
		CapacityOverride: 50_000,
	})
	gen := Uniform{Label: "toy", InLo: 50, InHi: 100, OutLo: 20, OutHi: 60}
	cl := NewClosedLoop(e, gen, rng.New(12), 8, 256, 0, 30.0)
	res := e.RunUntil(30.0)
	if cl.Submitted() < 16 {
		t.Fatalf("clients submitted only %d requests", cl.Submitted())
	}
	if len(res.Finished) < 8 {
		t.Fatalf("finished %d", len(res.Finished))
	}
	// Every request belongs to one of the 8 clients.
	for _, r := range res.Finished {
		if r.ClientID < 0 || r.ClientID >= 8 {
			t.Fatalf("client id %d", r.ClientID)
		}
	}
	// Concurrency bound: at no point can more than 8 requests be in flight,
	// so the running batch can never exceed 8.
	if res.MeanBatchSize > 8.01 {
		t.Fatalf("mean batch %v exceeds client count", res.MeanBatchSize)
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	e := engine.MustNew(engine.Config{
		Perf:             pm,
		Scheduler:        core.NewOracle(),
		CapacityOverride: 50_000,
	})
	gen := Uniform{Label: "toy", InLo: 50, InHi: 100, OutLo: 5, OutHi: 10}
	NewClosedLoop(e, gen, rng.New(13), 2, 64, 0, 2.0)
	res := e.Run() // run to drain: clients stop after the deadline
	for _, r := range res.Finished {
		if r.ArrivalTime >= 2.0 {
			t.Fatalf("request submitted at %v after deadline", r.ArrivalTime)
		}
	}
}

func TestPhasedArrivalsFollowPhaseRates(t *testing.T) {
	phases := []RatePhase{
		{Rate: 2, Duration: 100},
		{Rate: 20, Duration: 100},
	}
	n := PhasedCount(phases)
	if n != 2200 {
		t.Fatalf("phased count %d, want 2200", n)
	}
	reqs := Build(ShareGPT, rng.New(3), n, 1, 256)
	end := AssignPhasedArrivals(reqs, rng.New(4), phases, 0)
	if end != 200 {
		t.Fatalf("phase end %v, want 200", end)
	}
	var inFirst, inSecond int
	last := 0.0
	for _, r := range reqs {
		if r.ArrivalTime < last {
			t.Fatal("arrival times not monotone")
		}
		last = r.ArrivalTime
		switch {
		case r.ArrivalTime < 100:
			inFirst++
		case r.ArrivalTime < 200:
			inSecond++
		}
	}
	// ~200 arrivals expected in the slow phase, ~2000 in the fast one.
	if inFirst < 150 || inFirst > 260 {
		t.Fatalf("slow phase got %d arrivals, want ≈200", inFirst)
	}
	if inSecond < 1700 {
		t.Fatalf("fast phase got %d arrivals, want ≈2000", inSecond)
	}
}

func TestRampPhases(t *testing.T) {
	phases := Ramp(2, 12, 50, 5)
	if len(phases) != 5 {
		t.Fatalf("ramp has %d phases, want 5", len(phases))
	}
	var total float64
	for i, ph := range phases {
		total += ph.Duration
		if i > 0 && ph.Rate <= phases[i-1].Rate {
			t.Fatalf("ramp not increasing: %+v", phases)
		}
		if ph.Rate <= 2 || ph.Rate >= 12 {
			t.Fatalf("ramp rate %v outside (2,12)", ph.Rate)
		}
	}
	if total != 50 {
		t.Fatalf("ramp duration %v, want 50", total)
	}
}

func TestPhasedArrivalsPanicsOnEmptyPhases(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty phases did not panic")
		}
	}()
	AssignPhasedArrivals(nil, rng.New(1), nil, 0)
}

func TestClosedLoopPanicsOnZeroClients(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero clients did not panic")
		}
	}()
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	e := engine.MustNew(engine.Config{Perf: pm, Scheduler: core.NewOracle()})
	NewClosedLoop(e, ShareGPT, rng.New(1), 0, 64, 0, 1)
}
