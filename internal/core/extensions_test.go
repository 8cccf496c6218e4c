package core

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

func TestNoResampleFreezesPredictions(t *testing.T) {
	pf := MustNewPastFuture(PastFutureConfig{Deterministic: true, NoResample: true})
	w := fullWindow(100, 50)
	running := request.New(1, 10, 80, 200, 0)
	running.PredictedLen = 60 // prediction made at admission time
	for i := 0; i < 20; i++ {
		running.EmitToken(float64(i))
	}
	running.State = request.Running
	v := view(10_000, []*request.Request{running}, w)
	pf.Admit(v, []*request.Request{request.New(2, 10, 5, 200, 0)})
	if running.PredictedLen != 60 {
		t.Fatalf("NoResample changed the prediction to %d", running.PredictedLen)
	}
}

func TestNoResampleFloorsOvertakenPredictions(t *testing.T) {
	pf := MustNewPastFuture(PastFutureConfig{Deterministic: true, NoResample: true})
	w := fullWindow(100, 50)
	running := request.New(1, 10, 80, 200, 0)
	running.PredictedLen = 15 // generation has overtaken the frozen guess
	for i := 0; i < 20; i++ {
		running.EmitToken(float64(i))
	}
	running.State = request.Running
	v := view(10_000, []*request.Request{running}, w)
	pf.Admit(v, []*request.Request{request.New(2, 10, 5, 200, 0)})
	if running.PredictedLen != 21 {
		t.Fatalf("overtaken prediction floored to %d, want generated+1 = 21", running.PredictedLen)
	}
}

func TestResampleUpdatesEveryStepByDefault(t *testing.T) {
	pf := MustNewPastFuture(PastFutureConfig{Deterministic: true})
	w := fullWindow(100, 50)
	running := request.New(1, 10, 80, 200, 0)
	running.PredictedLen = 60
	for i := 0; i < 20; i++ {
		running.EmitToken(float64(i))
	}
	running.State = request.Running
	v := view(10_000, []*request.Request{running}, w)
	pf.Admit(v, []*request.Request{request.New(2, 10, 5, 200, 0)})
	if running.PredictedLen != 100 {
		t.Fatalf("default mode did not resample: %d, want 100", running.PredictedLen)
	}
}

func TestPredictedBatchPeakMatchesOracleWithPerfectWindow(t *testing.T) {
	// A degenerate window (every output = 50) makes the quantile prediction
	// exact, so the predicted peak equals the ground-truth peak.
	w := fullWindow(50, 100)
	var batch []*request.Request
	for i := 0; i < 5; i++ {
		r := request.New(int64(i), 20, 50, 100, 0)
		for j := 0; j < i*5; j++ {
			r.EmitToken(float64(j))
		}
		batch = append(batch, r)
	}
	got := PredictedBatchPeak(batch, w, 0.9)
	want := TrueFutureRequiredMemory(batch)
	if got != want {
		t.Fatalf("predicted peak %d != true peak %d", got, want)
	}
}

func TestPredictedBatchPeakColdStartUsesCaps(t *testing.T) {
	batch := []*request.Request{request.New(1, 30, 5, 70, 0)}
	got := PredictedBatchPeak(batch, dist.NewWindow(10), 0.9)
	if got != 30+70 {
		t.Fatalf("cold-start peak %d, want input+cap = 100", got)
	}
	// Nil window behaves the same.
	if got := PredictedBatchPeak(batch, nil, 0.9); got != 100 {
		t.Fatalf("nil-window peak %d", got)
	}
}

// TestFreshQuantileMatchesQuantileEntry: for a request that has generated
// nothing, the entry built from a quantile read once equals the entry read
// through the sampler — with no sampler, an empty window, a window whose
// mass lies under, around and above the request's cap, and a prompt partly
// served from a prefix cache — and stops being equal once the window moves,
// which is why its holder must re-read it.
func TestFreshQuantileMatchesQuantileEntry(t *testing.T) {
	reqs := []*request.Request{
		request.New(1, 30, 5, 70, 0),
		request.New(2, 500, 300, 4096, 0),
		request.New(3, 64, 1, 1, 0),
	}
	reqs[1].CachedTokens = 128
	windows := map[string]*dist.Window{
		"nil":       nil,
		"empty":     dist.NewWindow(10),
		"zeros":     fullWindow(0, 20), // no mass above 0: every cap
		"below cap": fullWindow(40, 50),
		"above cap": fullWindow(10_000, 50),
	}
	mixed := dist.NewWindow(100)
	for i := 0; i < 100; i++ {
		mixed.Add(i * 13 % 97)
	}
	windows["mixed"] = mixed
	for name, w := range windows {
		var s *dist.Sampler
		if w != nil {
			s = w.Sampler()
		}
		for _, q := range []float64{0, 0.5, 0.9, 1} {
			fresh := NewFreshQuantile(s, q)
			for _, r := range reqs {
				if got, want := fresh.Entry(r), QuantileEntry(r, s, q); got != want {
					t.Fatalf("%s window, q=%v, request %d: fresh entry %+v, QuantileEntry %+v", name, q, r.ID, got, want)
				}
			}
		}
	}
	stale := NewFreshQuantile(mixed.Sampler(), 0.9)
	for i := 0; i < 100; i++ {
		mixed.Add(2000)
	}
	if r := reqs[1]; stale.Entry(r) == QuantileEntry(r, mixed.Sampler(), 0.9) {
		t.Fatal("a quantile read before 100 Adds still matches the window: the test no longer shows staleness")
	}
}

func TestPredictedBatchPeakClampsToCap(t *testing.T) {
	w := fullWindow(10_000, 50) // history far above the request's cap
	batch := []*request.Request{request.New(1, 30, 5, 64, 0)}
	if got := PredictedBatchPeak(batch, w, 0.9); got != 30+64 {
		t.Fatalf("peak %d, want clamped 94", got)
	}
}

func TestPredictedBatchPeakAboveSupportPredictsCap(t *testing.T) {
	w := fullWindow(8, 50)
	r := request.New(1, 30, 40, 64, 0)
	for i := 0; i < 20; i++ { // generated beyond the window's support
		r.EmitToken(float64(i))
	}
	got := PredictedBatchPeak([]*request.Request{r}, w, 0.9)
	if got != 50+(64-20) {
		t.Fatalf("peak %d, want footprint+remaining-to-cap = %d", got, 50+44)
	}
}

func TestPredictedBatchPeakEmpty(t *testing.T) {
	if got := PredictedBatchPeak(nil, fullWindow(5, 5), 0.9); got != 0 {
		t.Fatalf("empty batch peak %d", got)
	}
}

func TestMultiSampleTakesMaxDraw(t *testing.T) {
	// Bimodal window {10, 500}: with 16 redraws the max is almost surely
	// 500, so a small-batch admission must budget for the long mode.
	w := dist.NewWindow(100)
	for i := 0; i < 50; i++ {
		w.Add(10)
		w.Add(500)
	}
	pf := MustNewPastFuture(PastFutureConfig{
		Rng: rng.New(3), Samples: 16, SmallBatch: 10,
	})
	q := request.New(1, 20, 10, 1000, 0)
	v := view(10_000, nil, w)
	pf.Admit(v, []*request.Request{q})
	if q.PredictedLen != 500 {
		t.Fatalf("multi-sample prediction %d, want 500", q.PredictedLen)
	}
}

func TestSingleSampleOnLargeBatch(t *testing.T) {
	// Above the SmallBatch threshold only one draw happens per request;
	// with a bimodal window some predictions must be the short mode.
	w := dist.NewWindow(100)
	for i := 0; i < 50; i++ {
		w.Add(10)
		w.Add(500)
	}
	pf := MustNewPastFuture(PastFutureConfig{Rng: rng.New(4), Samples: 16, SmallBatch: 2})
	v := view(1_000_000, nil, w)
	var qs []*request.Request
	for i := 0; i < 40; i++ {
		qs = append(qs, request.New(int64(i), 20, 10, 1000, 0))
	}
	pf.Admit(v, qs)
	short := 0
	for _, q := range qs {
		if q.PredictedLen == 10 {
			short++
		}
	}
	if short == 0 {
		t.Fatal("no short-mode predictions despite single-draw sampling")
	}
}
