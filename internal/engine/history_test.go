package engine

import (
	"slices"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/request"
)

// classReq builds a request of the given service class arriving at t=0.
func classReq(id int64, class string, out int) *request.Request {
	r := request.New(id, 50, out, 4096, 0)
	r.Class = class
	return r
}

// warmEngine runs a deterministic past-future engine through one finished
// request per (class, output length) pair, so its one history window holds
// every class's lengths. The pairs must number at least the 16 lengths
// Past-Future waits for before it trusts the window.
func warmEngine(t *testing.T, warm map[string][]int) *Engine {
	t.Helper()
	e := MustNew(Config{
		Perf:      testPerf(t),
		Scheduler: core.MustNewPastFuture(core.PastFutureConfig{Deterministic: true}),
		// Plenty of capacity: admission always succeeds, the tests only
		// inspect the predictions.
		CapacityOverride: 100_000,
	})
	id := int64(1)
	for _, class := range []string{"short", "long", "seen"} {
		for _, out := range warm[class] {
			e.Submit(classReq(id, class, out))
			id++
		}
	}
	e.Run()
	if n := e.History().Len(); n < 16 {
		t.Fatalf("warmed with %d lengths: the window is still cold", n)
	}
	return e
}

// pricedRounds attaches a no-op admit hook, so every round prices its batch
// and writes PredictedLen: an unobserved round that the conservative budget
// clears admits without drawing and writes none.
func pricedRounds(e *Engine) {
	e.AddAdmitHook(func(float64, core.AdmitRound) {})
}

func TestHistoryWindowHoldsEveryClass(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 5000)
	for i := 0; i < 5; i++ {
		e.Submit(classReq(int64(i+1), "api", 10))
	}
	for i := 0; i < 3; i++ {
		e.Submit(classReq(int64(i+100), "chat", 40))
	}
	e.Run()
	got := slices.Clone(e.History().Values())
	slices.Sort(got)
	want := []int{10, 10, 10, 10, 10, 40, 40, 40}
	if !slices.Equal(got, want) {
		t.Fatalf("history window %v, want %v", got, want)
	}
}

func TestPredictionsIgnoreClass(t *testing.T) {
	// Two classes with disjoint output lengths share the one window, so a
	// fresh request of either class gets the same prediction.
	e := warmEngine(t, map[string][]int{
		"short": {20, 20, 20, 20, 20, 20, 20, 20},
		"long":  {900, 900, 900, 900, 900, 900, 900, 900},
	})
	pricedRounds(e)
	shortReq := classReq(200, "short", 10)
	longReq := classReq(201, "long", 10)
	e.Submit(shortReq)
	e.Submit(longReq)
	e.Step() // admission + prefill
	if shortReq.PredictedLen != longReq.PredictedLen {
		t.Fatalf("short-class prediction %d, long-class %d: want equal", shortReq.PredictedLen, longReq.PredictedLen)
	}
	if shortReq.PredictedLen != 20 && shortReq.PredictedLen != 900 {
		t.Fatalf("prediction %d is not a length the window holds", shortReq.PredictedLen)
	}
	e.Run()
}

func TestUnseenClassPredictsFromWindow(t *testing.T) {
	e := warmEngine(t, map[string][]int{"seen": {33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33}})
	pricedRounds(e)
	probe := classReq(100, "never-seen", 10)
	e.Submit(probe)
	e.Step()
	if probe.PredictedLen != 33 {
		t.Fatalf("unseen-class prediction %d, want the window's 33", probe.PredictedLen)
	}
	e.Run()
}
