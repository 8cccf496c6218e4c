package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// view builds a View over a running batch, deriving usage from footprints.
func view(capacity int, running []*request.Request, history *dist.Window) *View {
	used := 0
	for _, r := range running {
		used += r.Footprint()
	}
	return &View{
		CapacityTokens: capacity,
		UsedTokens:     used,
		FreeTokens:     capacity - used,
		Running:        running,
		History:        history,
	}
}

// fullWindow returns a history window holding value repeated n times.
func fullWindow(value, n int) *dist.Window {
	w := dist.NewWindow(n)
	for i := 0; i < n; i++ {
		w.Add(value)
	}
	return w
}

func detPF(t *testing.T, reserved float64) *PastFuture {
	t.Helper()
	pf, err := NewPastFuture(PastFutureConfig{Reserved: reserved, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

func TestPastFutureColdStartUsesMaxNewTokens(t *testing.T) {
	pf := detPF(t, 0)
	// Empty history: predictions fall back to max_new_tokens.
	big := request.New(1, 10, 5, 200, 0) // true output 5, but scheduler can't know
	v := view(100, nil, dist.NewWindow(1000))
	if got := pf.Admit(v, []*request.Request{big}); got != 0 {
		t.Fatalf("cold start admitted a request whose cap exceeds capacity (admitted %d)", got)
	}
	small := request.New(2, 10, 5, 50, 0)
	if got := pf.Admit(v, []*request.Request{small}); got != 1 {
		t.Fatalf("cold start rejected a safely capped request (admitted %d)", got)
	}
	if small.PredictedLen != 50 {
		t.Fatalf("cold-start prediction = %d, want max_new_tokens 50", small.PredictedLen)
	}
}

func TestPastFutureUsesHistoryOverCap(t *testing.T) {
	pf := detPF(t, 0)
	// History says outputs are ~5 tokens; requests have a huge cap.
	hist := fullWindow(5, 100)
	v := view(100, nil, hist)
	q := []*request.Request{
		request.New(1, 20, 5, 2048, 0),
		request.New(2, 20, 5, 2048, 0),
		request.New(3, 20, 5, 2048, 0),
	}
	// Each request: current 20, predicted remaining 5. M* for 3 requests
	// = 60 + 5·3 = 75 ≤ 100: all admitted. A conservative scheduler would
	// admit none (20+2048 ≫ 100).
	if got := pf.Admit(v, q); got != 3 {
		t.Fatalf("admitted %d, want 3", got)
	}
	if q[0].PredictedLen != 5 {
		t.Fatalf("prediction = %d, want 5", q[0].PredictedLen)
	}
}

func TestPastFutureStopsAtFirstRejection(t *testing.T) {
	pf := detPF(t, 0)
	hist := fullWindow(5, 100)
	v := view(100, nil, hist)
	q := []*request.Request{
		request.New(1, 20, 5, 2048, 0),
		request.New(2, 500, 5, 2048, 0), // prompt alone exceeds capacity
		request.New(3, 20, 5, 2048, 0),  // would fit, but FCFS stops
	}
	if got := pf.Admit(v, q); got != 1 {
		t.Fatalf("admitted %d, want 1 (FCFS stop at first rejection)", got)
	}
}

func TestPastFutureReservedThreshold(t *testing.T) {
	hist := fullWindow(10, 100)
	// One request: current 80 + remaining 10 → M* = 90.
	q := []*request.Request{request.New(1, 80, 10, 100, 0)}
	// 90 ≤ 100 with no reserve: admitted.
	if got := detPF(t, 0).Admit(view(100, nil, hist), q); got != 1 {
		t.Fatalf("no-reserve admitted %d, want 1", got)
	}
	// With 15% reserve the threshold is 85 < 90: rejected.
	if got := detPF(t, 0.15).Admit(view(100, nil, hist), q); got != 0 {
		t.Fatalf("15%%-reserve admitted %d, want 0", got)
	}
}

func TestPastFutureConditionalResampling(t *testing.T) {
	pf := detPF(t, 0)
	// History: mostly 10s with a tail at 50.
	w := dist.NewWindow(100)
	for i := 0; i < 90; i++ {
		w.Add(10)
	}
	for i := 0; i < 10; i++ {
		w.Add(50)
	}
	running := request.New(1, 5, 50, 100, 0)
	for i := 0; i < 20; i++ {
		running.EmitToken(float64(i)) // generated 20 > most history
	}
	v := view(1000, []*request.Request{running}, w)
	queued := request.New(2, 5, 10, 100, 0)
	pf.Admit(v, []*request.Request{queued})
	// The running request has outlived the 10-token mass: its prediction
	// must come from P(l > 20) = {50}.
	if running.PredictedLen != 50 {
		t.Fatalf("conditional prediction = %d, want 50", running.PredictedLen)
	}
	// The queued request samples unconditionally: quantile 0.9 of the
	// window is 50... but at 0.9 over 100 values (90x10, 10x50) index 89 →
	// still 10.
	if queued.PredictedLen != 10 {
		t.Fatalf("unconditional prediction = %d, want 10", queued.PredictedLen)
	}
}

func TestPastFuturePredictionFallsBackToCapAboveSupport(t *testing.T) {
	pf := detPF(t, 0)
	w := fullWindow(8, 50)
	running := request.New(1, 5, 30, 40, 0)
	for i := 0; i < 10; i++ {
		running.EmitToken(float64(i))
	}
	v := view(1000, []*request.Request{running}, w)
	pf.Admit(v, []*request.Request{request.New(2, 5, 5, 40, 0)})
	// No history above 10: prediction = max_new_tokens.
	if running.PredictedLen != 40 {
		t.Fatalf("above-support prediction = %d, want cap 40", running.PredictedLen)
	}
}

func TestPastFuturePredictionClampedToCap(t *testing.T) {
	pf := detPF(t, 0)
	w := fullWindow(500, 50) // history much longer than this request's cap
	v := view(10000, nil, w)
	q := request.New(1, 5, 5, 64, 0)
	pf.Admit(v, []*request.Request{q})
	if q.PredictedLen != 64 {
		t.Fatalf("prediction = %d, want clamped to 64", q.PredictedLen)
	}
}

func TestPastFutureSamplingDeterministicPerSeed(t *testing.T) {
	mk := func(seed uint64) int {
		pf := MustNewPastFuture(PastFutureConfig{Reserved: 0.03, Rng: rng.New(seed)})
		w := dist.NewWindow(200)
		r := rng.New(99)
		for i := 0; i < 200; i++ {
			w.Add(50 + r.Intn(100))
		}
		v := view(2000, nil, w)
		var q []*request.Request
		for i := 0; i < 10; i++ {
			q = append(q, request.New(int64(i), 100, 80, 2048, 0))
		}
		return pf.Admit(v, q)
	}
	if mk(1) != mk(1) {
		t.Fatal("same seed produced different admissions")
	}
}

func TestPastFutureRespectsPhysicalFree(t *testing.T) {
	pf := detPF(t, 0)
	hist := fullWindow(5, 100)
	// Logical capacity says yes, but physical free (fragmented pool) says no.
	v := &View{
		CapacityTokens: 1000,
		UsedTokens:     100,
		FreeTokens:     10, // fragmented: only 10 physically free
		History:        hist,
	}
	q := []*request.Request{request.New(1, 50, 5, 100, 0)}
	if got := pf.Admit(v, q); got != 0 {
		t.Fatalf("admitted %d despite no physical space", got)
	}
}

func TestPastFutureConfigValidation(t *testing.T) {
	if _, err := NewPastFuture(PastFutureConfig{Reserved: -0.1, Deterministic: true}); err == nil {
		t.Fatal("negative reserve accepted")
	}
	if _, err := NewPastFuture(PastFutureConfig{Reserved: 1.0, Deterministic: true}); err == nil {
		t.Fatal("reserve=1 accepted")
	}
	if _, err := NewPastFuture(PastFutureConfig{}); err == nil {
		t.Fatal("sampling mode without RNG accepted")
	}
	if _, err := NewPastFuture(PastFutureConfig{Deterministic: true, Quantile: 1.5}); err == nil {
		t.Fatal("quantile > 1 accepted")
	}
	// A negative Samples would skip predict's draw loop: every multi-sampled
	// prediction Generated+1, the aggressive rule under Past-Future's name.
	for _, cfg := range []PastFutureConfig{
		{Deterministic: true, Samples: -1},
		{Deterministic: true, SmallBatch: -1},
	} {
		if _, err := NewPastFuture(cfg); err == nil {
			t.Fatalf("negative count accepted: %+v", cfg)
		}
	}
	// NaN fails every comparison, so a range written as "x < lo || x > hi"
	// would pass it; ±Inf is outside every range here.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewPastFuture(PastFutureConfig{Reserved: v, Deterministic: true}); err == nil {
			t.Fatalf("reserve %v accepted", v)
		}
		if _, err := NewPastFuture(PastFutureConfig{Deterministic: true, Quantile: v}); err == nil {
			t.Fatalf("quantile %v accepted", v)
		}
	}
}

func TestPastFutureName(t *testing.T) {
	if got := detPF(t, 0.05).Name(); got != "past-future(reserved=5%)" {
		t.Fatalf("name = %q", got)
	}
}

func TestAggressiveAdmitsOnCurrentUsageOnly(t *testing.T) {
	a := MustNewAggressive(0.9)
	// Requests with tiny prompts but enormous (hidden) outputs: the
	// aggressive scheduler admits them all — that is its defining flaw.
	var q []*request.Request
	for i := 0; i < 8; i++ {
		q = append(q, request.New(int64(i), 10, 1000, 2048, 0))
	}
	v := view(1000, nil, dist.NewWindow(10))
	if got := a.Admit(v, q); got != 8 {
		t.Fatalf("admitted %d, want 8", got)
	}
}

func TestAggressiveWatermarkBudget(t *testing.T) {
	a := MustNewAggressive(0.5) // budget 50 of 100
	v := view(100, nil, dist.NewWindow(10))
	q := []*request.Request{
		request.New(1, 30, 5, 10, 0),
		request.New(2, 30, 5, 10, 0), // 60 > 50: stop
	}
	if got := a.Admit(v, q); got != 1 {
		t.Fatalf("admitted %d, want 1", got)
	}
}

func TestAggressiveCountsRunningUsage(t *testing.T) {
	a := MustNewAggressive(1.0)
	running := request.New(1, 70, 50, 100, 0)
	v := view(100, []*request.Request{running}, dist.NewWindow(10))
	q := []*request.Request{request.New(2, 40, 5, 10, 0)}
	if got := a.Admit(v, q); got != 0 {
		t.Fatalf("admitted %d past capacity", got)
	}
}

func TestAggressiveValidation(t *testing.T) {
	if _, err := NewAggressive(0); err == nil {
		t.Fatal("watermark 0 accepted")
	}
	if _, err := NewAggressive(1.01); err == nil {
		t.Fatal("watermark > 1 accepted")
	}
}

func TestConservativeReservesWorstCase(t *testing.T) {
	c := MustNewConservative(1.0)
	v := view(100, nil, dist.NewWindow(10))
	// input 10 + max_new 80 = 90 ≤ 100: admitted. Second would need 180.
	q := []*request.Request{
		request.New(1, 10, 5, 80, 0),
		request.New(2, 10, 5, 80, 0),
	}
	if got := c.Admit(v, q); got != 1 {
		t.Fatalf("admitted %d, want 1", got)
	}
}

func TestConservativeOvercommit(t *testing.T) {
	c := MustNewConservative(2.0) // assumes 200 tokens of capacity
	v := view(100, nil, dist.NewWindow(10))
	q := []*request.Request{
		request.New(1, 10, 5, 80, 0),
		request.New(2, 10, 5, 80, 0),
	}
	if got := c.Admit(v, q); got != 2 {
		t.Fatalf("overcommit admitted %d, want 2", got)
	}
}

func TestConservativeCountsRunningReservations(t *testing.T) {
	c := MustNewConservative(1.0)
	running := request.New(1, 10, 50, 80, 0) // reserves 90
	v := view(100, []*request.Request{running}, dist.NewWindow(10))
	q := []*request.Request{request.New(2, 5, 2, 4, 0)} // needs 9 > 10 left
	if got := c.Admit(v, q); got != 1 {
		t.Fatalf("admitted %d, want 1 (9 ≤ 10 remaining budget)", got)
	}
	q2 := []*request.Request{request.New(3, 5, 2, 10, 0)} // needs 15 > 10
	if got := c.Admit(v, q2); got != 0 {
		t.Fatalf("admitted %d, want 0", got)
	}
}

// TestConservativeRefusesAgain: a refusal of the head on the budget under a
// non-zero Epoch is a certificate for the later rounds of that Epoch — the
// same head, batch size, window and budget are refused in O(1), and any of
// them changed sends the round back through the reservations. A refusal on
// free memory alone, or under Epoch 0, certifies nothing.
func TestConservativeRefusesAgain(t *testing.T) {
	c := MustNewConservative(1.0)
	running := request.New(1, 10, 50, 80, 0) // reserves 90
	v := view(100, []*request.Request{running}, dist.NewWindow(10))
	head := request.New(2, 5, 2, 10, 0) // needs 15 > 10
	round := func() RepeatRound {
		return RepeatRound{Epoch: v.Epoch, Head: head, Running: len(v.Running), Queued: 1,
			History: v.History, CapacityTokens: v.CapacityTokens}
	}
	if c.Admit(v, []*request.Request{head}) != 0 || c.RefusesAgain(round()) {
		t.Fatal("a refusal under Epoch 0 left a certificate")
	}
	v.Epoch = 3
	if c.Admit(v, []*request.Request{head}) != 0 || !c.RefusesAgain(round()) {
		t.Fatal("a refusal on the budget under Epoch 3 left no certificate")
	}
	for _, change := range []func(r *RepeatRound){
		func(r *RepeatRound) { r.Epoch++ },
		func(r *RepeatRound) { r.Head = running },
		func(r *RepeatRound) { r.Running++ },
		func(r *RepeatRound) { r.History = dist.NewWindow(10) },
		func(r *RepeatRound) { r.CapacityTokens += 5 },
	} {
		r := round()
		change(&r)
		if c.RefusesAgain(r) {
			t.Fatalf("certificate held over a changed round %+v", r)
		}
	}
	// Room in the budget for the head, none in free memory: refused, but
	// nothing is certified.
	v.CapacityTokens, v.FreeTokens = 200, 0
	if c.Admit(v, []*request.Request{head}) != 0 || c.RefusesAgain(round()) {
		t.Fatal("a refusal on free memory left a certificate")
	}
}

func TestConservativeValidation(t *testing.T) {
	if _, err := NewConservative(0.9); err == nil {
		t.Fatal("overcommit < 1 accepted")
	}
}

func TestConservativeName(t *testing.T) {
	if MustNewConservative(1.0).Name() != "conservative" {
		t.Fatal("plain name wrong")
	}
	if MustNewConservative(1.5).Name() != "conservative(overcommit=150%)" {
		t.Fatalf("overcommit name = %q", MustNewConservative(1.5).Name())
	}
}

func TestOracleExactAdmission(t *testing.T) {
	o := NewOracle()
	v := view(100, nil, dist.NewWindow(10))
	// True outputs are tiny despite huge caps: the oracle knows.
	var q []*request.Request
	for i := 0; i < 4; i++ {
		q = append(q, request.New(int64(i), 20, 3, 2048, 0))
	}
	// M* for 4 requests = 80 + 3·4 = 92 ≤ 100.
	if got := o.Admit(v, q); got != 4 {
		t.Fatalf("oracle admitted %d, want 4", got)
	}
}

func TestOracleNeverOvercommitsQuick(t *testing.T) {
	// Property: after oracle admissions, the ground-truth future peak of
	// the admitted set never exceeds capacity — the "zero evictions"
	// guarantee of Table 1's theoretical optimum.
	f := func(raw []struct{ In, Out uint8 }, capRaw uint16) bool {
		capacity := int(capRaw%2000) + 100
		v := view(capacity, nil, dist.NewWindow(10))
		var q []*request.Request
		for i, x := range raw {
			q = append(q, request.New(int64(i), int(x.In)+1, int(x.Out)+1, 256, 0))
		}
		n := NewOracle().Admit(v, q)
		return TrueFutureRequiredMemory(q[:n]) <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFigure6Scenario(t *testing.T) {
	// Paper Figure 6: system capacity 21 tokens.
	// Running: R1 (input 4, generated 2, true output 4 → 2 remaining),
	//          R2 (input 3, generated 3, true output 7 → 4 remaining).
	// Queued:  Q  (input 4, true output 3).
	const capacity = 21
	mkState := func(extraSteps int) ([]*request.Request, *request.Request) {
		r1 := request.New(1, 4, 4, 4, 0)
		r2 := request.New(2, 3, 7, 7, 0)
		for i := 0; i < 2+extraSteps; i++ {
			r1.EmitToken(float64(i))
		}
		for i := 0; i < 3+extraSteps; i++ {
			r2.EmitToken(float64(i))
		}
		q := request.New(3, 4, 3, 3, 0)
		return []*request.Request{r1, r2}, q
	}

	// Looking-to-future (oracle = past-future with perfect predictions):
	// at t the batch+Q peaks at 22 > 21 → wait.
	running, q := mkState(0)
	all := append(append([]*request.Request{}, running...), q)
	if got := TrueFutureRequiredMemory(all); got != 22 {
		t.Fatalf("M* at t = %d, want 22", got)
	}
	if got := NewOracle().Admit(view(capacity, running, nil), []*request.Request{q}); got != 0 {
		t.Fatalf("oracle admitted at t (M*=22 > 21)")
	}

	// At t+1 the peak is exactly 21 → admit.
	running, q = mkState(1)
	all = append(append([]*request.Request{}, running...), q)
	if got := TrueFutureRequiredMemory(all); got != 21 {
		t.Fatalf("M* at t+1 = %d, want 21", got)
	}
	if got := NewOracle().Admit(view(capacity, running, nil), []*request.Request{q}); got != 1 {
		t.Fatalf("oracle did not admit at t+1")
	}

	// Aggressive admits immediately at t (current usage 12+4 = 16 ≤ 21)…
	running, q = mkState(0)
	if got := MustNewAggressive(1.0).Admit(view(capacity, running, nil), []*request.Request{q}); got != 1 {
		t.Fatal("aggressive should admit at t")
	}
	// …making a future eviction inevitable (true peak 22 > capacity).
	all = append(append([]*request.Request{}, running...), q)
	if TrueFutureRequiredMemory(all) <= capacity {
		t.Fatal("aggressive admission should overcommit the future")
	}

	// Conservative waits until R1 completes: worst-case reservations are
	// (4+4)+(3+7) = 18, +7 for Q = 25 > 21 at t and t+1.
	running, q = mkState(0)
	if got := MustNewConservative(1.0).Admit(view(capacity, running, nil), []*request.Request{q}); got != 0 {
		t.Fatal("conservative should reject at t")
	}
	running, q = mkState(1)
	if got := MustNewConservative(1.0).Admit(view(capacity, running, nil), []*request.Request{q}); got != 0 {
		t.Fatal("conservative should reject at t+1")
	}
	// After R1 finishes: reservations 10, +7 = 17 ≤ 21 → admit.
	running, q = mkState(0)
	r2 := running[1]
	r2Only := []*request.Request{r2}
	if got := MustNewConservative(1.0).Admit(view(capacity, r2Only, nil), []*request.Request{q}); got != 1 {
		t.Fatal("conservative should admit after R1 completes")
	}
}
