package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/lightllm-go/lightllm/internal/request"
)

// finishedReq fabricates a finished request with the given timing.
func finishedReq(id int64, arrival, firstToken float64, gaps []float64) *request.Request {
	r := request.New(id, 10, len(gaps)+1, 4096, arrival)
	r.EmitToken(firstToken)
	t := firstToken
	for _, g := range gaps {
		t += g
		r.EmitToken(t)
	}
	r.Finish(t)
	return r
}

func TestSLAMet(t *testing.T) {
	sla := SLA{TTFT: 2, MTPOT: 1}
	good := finishedReq(1, 0, 1.0, []float64{0.5, 0.5})
	if !sla.Met(good) {
		t.Fatal("good request failed SLA")
	}
	lateFirst := finishedReq(2, 0, 3.0, []float64{0.5})
	if sla.Met(lateFirst) {
		t.Fatal("TTFT violation passed SLA")
	}
	stalled := finishedReq(3, 0, 1.0, []float64{0.5, 2.0})
	if sla.Met(stalled) {
		t.Fatal("MTPOT violation passed SLA")
	}
}

func TestSLAUnstartedRequestFails(t *testing.T) {
	r := request.New(1, 10, 5, 10, 0) // never emitted a token
	if (SLA{TTFT: 10, MTPOT: 10}).Met(r) {
		t.Fatal("request without first token passed SLA")
	}
}

func TestSummarizeCounts(t *testing.T) {
	sla := SLA{TTFT: 2, MTPOT: 1}
	reqs := []*request.Request{
		finishedReq(1, 0, 1, []float64{0.5, 0.5}), // ok, 3 tokens
		finishedReq(2, 0, 5, []float64{0.5}),      // TTFT violation, 2 tokens
		finishedReq(3, 0, 1, []float64{3.0}),      // MTPOT violation, 2 tokens
	}
	s := Summarize(reqs, sla, 0, 10)
	if s.Total != 3 || s.SLAOK != 1 {
		t.Fatalf("total=%d ok=%d", s.Total, s.SLAOK)
	}
	if s.ViolatedTTFT != 1 || s.ViolatedMTPOT != 1 {
		t.Fatalf("violations ttft=%d mtpot=%d", s.ViolatedTTFT, s.ViolatedMTPOT)
	}
	if s.OutputTokens != 7 || s.GoodTokens != 3 {
		t.Fatalf("tokens=%d good=%d", s.OutputTokens, s.GoodTokens)
	}
	if math.Abs(s.Goodput-0.3) > 1e-12 {
		t.Fatalf("goodput = %v, want 0.3", s.Goodput)
	}
	if math.Abs(s.Throughput-0.7) > 1e-12 {
		t.Fatalf("throughput = %v, want 0.7", s.Throughput)
	}
	if math.Abs(s.SLARate()-1.0/3) > 1e-12 {
		t.Fatalf("sla rate = %v", s.SLARate())
	}
}

func TestSummarizeWindowFiltering(t *testing.T) {
	sla := SLA{TTFT: 10, MTPOT: 10}
	early := finishedReq(1, 0, 0.5, []float64{0.5}) // finishes at 1.0
	late := finishedReq(2, 0, 8.0, []float64{0.5})  // finishes at 8.5
	s := Summarize([]*request.Request{early, late}, sla, 2, 10)
	if s.Total != 1 {
		t.Fatalf("window filter kept %d", s.Total)
	}
	// Boundary: finish exactly at `from` is excluded, at `to` included.
	s2 := Summarize([]*request.Request{early}, sla, 1.0, 2.0)
	if s2.Total != 0 {
		t.Fatal("finish at window start should be excluded")
	}
	s3 := Summarize([]*request.Request{early}, sla, 0.5, 1.0)
	if s3.Total != 1 {
		t.Fatal("finish at window end should be included")
	}
}

func TestSummarizeUnfinishedExcluded(t *testing.T) {
	r := request.New(1, 10, 5, 10, 0)
	r.EmitToken(1) // running, not finished
	s := Summarize([]*request.Request{r}, SLA{TTFT: 10, MTPOT: 10}, 0, 10)
	if s.Total != 0 {
		t.Fatal("unfinished request counted")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, SLASmall, 0, 10)
	if s.Total != 0 || s.Goodput != 0 || s.SLARate() != 0 {
		t.Fatal("empty summary not zeroed")
	}
}

func TestSummarizePercentiles(t *testing.T) {
	sla := SLA{TTFT: 100, MTPOT: 100}
	var reqs []*request.Request
	for i := 0; i < 100; i++ {
		// TTFT = i * 0.01
		reqs = append(reqs, finishedReq(int64(i), 0, float64(i)*0.01, []float64{0.1}))
	}
	s := Summarize(reqs, sla, 0, 10)
	if s.P99TTFT < 0.97 || s.P99TTFT > 0.99 {
		t.Fatalf("p99 ttft = %v", s.P99TTFT)
	}
	if math.Abs(s.MeanTTFT-0.495) > 1e-9 {
		t.Fatalf("mean ttft = %v", s.MeanTTFT)
	}
}

func TestSummarizeEvictionsMean(t *testing.T) {
	a := finishedReq(1, 0, 1, []float64{0.1})
	a.Evictions = 2
	b := finishedReq(2, 0, 1, []float64{0.1})
	s := Summarize([]*request.Request{a, b}, SLASmall, 0, 10)
	if s.MeanEvictions != 1 {
		t.Fatalf("mean evictions = %v", s.MeanEvictions)
	}
}

func TestSummarizePanicsOnEmptyWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty window did not panic")
		}
	}()
	Summarize(nil, SLASmall, 5, 5)
}

func TestAddTimedOut(t *testing.T) {
	good := finishedReq(1, 0, 1, []float64{0.5})
	s := Summarize([]*request.Request{good}, SLA{TTFT: 5, MTPOT: 5}, 0, 10)
	dropped := request.New(2, 10, 5, 10, 0)
	dropped.DroppedAt = 4.0
	outside := request.New(3, 10, 5, 10, 0)
	outside.DroppedAt = 20.0 // past the window: excluded
	s.AddTimedOut([]*request.Request{dropped, outside}, 0, 10)
	if s.Total != 2 || s.TimedOut != 1 || s.ViolatedTTFT != 1 {
		t.Fatalf("after drops: total=%d timedout=%d ttftviol=%d", s.Total, s.TimedOut, s.ViolatedTTFT)
	}
	// Goodput unchanged (drops contribute no tokens), SLA rate halves.
	if s.GoodTokens != 2 {
		t.Fatalf("good tokens = %d", s.GoodTokens)
	}
	if s.SLARate() != 0.5 {
		t.Fatalf("sla rate = %v", s.SLARate())
	}
}

func TestPaperSLAConstants(t *testing.T) {
	if SLASmall.TTFT != 10 || SLASmall.MTPOT != 1.5 {
		t.Fatalf("small SLA = %+v", SLASmall)
	}
	if SLALarge.TTFT != 15 || SLALarge.MTPOT != 5 {
		t.Fatalf("large SLA = %+v", SLALarge)
	}
}

func TestStringers(t *testing.T) {
	if !strings.Contains(SLASmall.String(), "TTFT<10s") {
		t.Fatalf("SLA string = %q", SLASmall.String())
	}
	s := Summarize(nil, SLASmall, 0, 1)
	if !strings.Contains(s.String(), "goodput") {
		t.Fatalf("summary string = %q", s.String())
	}
}

// TestSummaryStringRendersOverloadAndFaultAxes: a healthy run keeps the
// familiar one-liner; shed/failure/cost counters render when non-zero so
// overload and fault-storm log lines are diagnosable.
func TestSummaryStringRendersOverloadAndFaultAxes(t *testing.T) {
	healthy := Summary{Total: 10, SLAOK: 10}
	for _, frag := range []string{"shed=", "crashes=", "cost=", "xferretries="} {
		if strings.Contains(healthy.String(), frag) {
			t.Fatalf("healthy summary renders %q: %q", frag, healthy.String())
		}
	}
	stormy := Summary{
		Total: 10, SLAOK: 4, GoodTokens: 100,
		Shed: 3, TimedOut: 1,
		Crashes: 2, Orphaned: 5, Recovered: 4, ReShed: 1, Lost: 0, MeanTimeToRecover: 1.5,
		TransferRetries: 7, RePrefills: 2,
		CostSeconds: 120,
	}
	got := stormy.String()
	for _, frag := range []string{
		"shed=3", "timedout=1",
		"crashes=2", "orphaned=5", "recovered=4", "reshed=1", "mttr=1.50s",
		"xferretries=7", "reprefills=2",
		"cost=120", "cost/good=",
	} {
		if !strings.Contains(got, frag) {
			t.Fatalf("storm summary lacks %q: %q", frag, got)
		}
	}
}

func TestAddShedCountsAsTTFTViolation(t *testing.T) {
	r1 := request.New(1, 10, 5, 10, 0)
	r1.Shed(2)
	r2 := request.New(2, 10, 5, 10, 0)
	r2.Shed(50) // outside the window: excluded
	served := request.New(3, 10, 2, 10, 0)
	served.EmitToken(1)
	served.EmitToken(1.5)
	served.Finish(1.5)

	s := Summarize([]*request.Request{served}, SLASmall, 0, 10)
	s.AddShed([]*request.Request{r1, r2}, 0, 10)
	if s.Total != 2 || s.Shed != 1 || s.ViolatedTTFT != 1 {
		t.Fatalf("total %d, shed %d, ttft-violated %d; want 2, 1, 1", s.Total, s.Shed, s.ViolatedTTFT)
	}
	// Goodput in completions/s counts only the served, SLA-met request.
	if got, want := s.GoodCompletionRate(), 0.1; got != want {
		t.Fatalf("good completion rate %v, want %v", got, want)
	}
	// The latency percentiles stay served-only.
	if s.P99TTFT != 1 {
		t.Fatalf("p99 TTFT %v polluted by shed requests", s.P99TTFT)
	}
}

func TestCostPerGoodCompletion(t *testing.T) {
	served := request.New(1, 10, 2, 10, 0)
	served.EmitToken(1)
	served.EmitToken(1.5)
	served.Finish(1.5)
	s := Summarize([]*request.Request{served}, SLASmall, 0, 10)
	if s.CostPerGoodCompletion() != 0 {
		t.Fatal("cost per good completion nonzero before any cost was recorded")
	}
	s.CostSeconds = 30
	if got := s.CostPerGoodCompletion(); got != 30 {
		t.Fatalf("cost per good completion %v, want 30 (one SLA-met request)", got)
	}
	// No SLA-met completions: the ratio degrades to 0, not +Inf.
	var empty Summary
	empty.CostSeconds = 10
	if empty.CostPerGoodCompletion() != 0 {
		t.Fatal("cost per good completion with zero SLAOK should be 0")
	}
}

// TestSummarizeGolden10k pins every value of a Summary over 10 000 finished
// requests — some outside the window, latencies heavy-tailed and full of
// ties — to the bits Summarize produced when it still grew its slices by
// append and took each percentile from stats.Percentile's copy-and-sort
// (commit 01bf65f): the means must sum in request order and the percentiles
// interpolate the same two ranks.
func TestSummarizeGolden10k(t *testing.T) {
	x := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int { // xorshift64*: the package does not import rng
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return int((x * 2685821657736338717) >> 33 % uint64(n))
	}
	reqs := make([]*request.Request, 10_000)
	for i := range reqs {
		arrival := float64(i) * 0.01
		first := arrival + float64(next(400))/100 + float64(next(100)*next(100)*next(100))/1e5
		gaps := make([]float64, next(30))
		for k := range gaps {
			gaps[k] = float64(next(50))/1000 + float64(next(20)/19)*float64(next(300))/100
		}
		reqs[i] = finishedReq(int64(i), arrival, first, gaps)
		reqs[i].Evictions = next(40) / 38
	}
	s := Summarize(reqs, SLA{TTFT: 3, MTPOT: 1}, 5, 95)
	type fields Summary // without String: every field, floats in shortest round-trip form
	got := fmt.Sprintf("%+v", fields(s))
	const want = "{Window:90 Total:8920 SLAOK:2839 TimedOut:0 Shed:0 ViolatedTTFT:4540 ViolatedMTPOT:3209 Crashes:0 Orphaned:0 Recovered:0 ReShed:0 Lost:0 TransferRetries:0 RePrefills:0 MeanTimeToRecover:0 OutputTokens:138584 GoodTokens:36332 Throughput:1539.8222222222223 Goodput:403.68888888888887 MeanTTFT:3.2004995213004537 P99TTFT:8.825196599999986 MeanTPOT:0.09538777395797521 P99TPOT:0.6004049999999994 MeanMTPOT:0.8394673766815993 P99MTPOT:2.9839999999999973 MeanEvictions:0.05190582959641256 CostSeconds:0}"
	if got != want {
		t.Fatalf("Summary over the 10k-request result:\n got %s\nwant %s", got, want)
	}
}
