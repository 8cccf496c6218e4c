package engine

import (
	"math"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

func TestSwapEvictionRecoversWithoutRecompute(t *testing.T) {
	run := func(pol EvictionPolicy) *Result {
		e, err := New(Config{
			Perf:             testPerf(t),
			Scheduler:        core.MustNewAggressive(0.99),
			Eviction:         pol,
			CapacityOverride: 1200,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.SubmitAll(mkReqs(20, 20, 60, 100))
		return e.Run()
	}
	rec := run(Recompute)
	sw := run(Swap)
	if rec.Evictions == 0 || sw.Evictions == 0 {
		t.Fatalf("scenario should evict under both policies (%d/%d)", rec.Evictions, sw.Evictions)
	}
	if rec.RecomputeTokens == 0 {
		t.Fatal("recompute policy recorded no recompute tokens")
	}
	if sw.SwapInTokens == 0 {
		t.Fatal("swap policy recorded no swap-in tokens")
	}
	if sw.RecomputeTokens != 0 {
		t.Fatalf("swap policy recomputed %d tokens", sw.RecomputeTokens)
	}
	if rec.SwapInTokens != 0 {
		t.Fatalf("recompute policy swapped %d tokens", rec.SwapInTokens)
	}
	if len(sw.Finished) != 20 || len(rec.Finished) != 20 {
		t.Fatal("not all requests finished")
	}
}

func TestSwapEvictionUnderChunking(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
		Scheduler:        core.MustNewAggressive(0.99),
		Eviction:         Swap,
		MaxPrefillTokens: 64,
		CapacityOverride: 1200,
		Chunked:          ChunkConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SubmitAll(mkReqs(20, 20, 60, 100))
	res := e.Run()
	if res.Evictions == 0 || res.SwapInTokens == 0 {
		t.Fatalf("chunked+swap: evictions=%d swapIn=%d", res.Evictions, res.SwapInTokens)
	}
	if len(res.Finished) != 20 {
		t.Fatalf("finished %d of 20", len(res.Finished))
	}
	if e.Pool().UsedTokens() != 0 {
		t.Fatal("memory leak under chunked+swap")
	}
}

func TestEvictionPolicyString(t *testing.T) {
	if Recompute.String() != "recompute" || Swap.String() != "swap" {
		t.Fatal("policy strings wrong")
	}
	if EvictionPolicy(9).String() == "" {
		t.Fatal("unknown policy string empty")
	}
}

func TestQueueTimeoutDropsStaleRequests(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
		Scheduler:        core.MustNewConservative(1.0),
		CapacityOverride: 200,
		QueueTimeout:     0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first request monopolises the conservative reservation budget for
	// ~0.9 simulated seconds (80 decode steps); the second arrives
	// immediately and must be abandoned once it has queued past 0.5 s.
	e.Submit(request.New(1, 100, 80, 99, 0))
	e.Submit(request.New(2, 100, 10, 99, 0))
	res := e.Run()
	if len(res.TimedOut) != 1 || res.TimedOut[0].ID != 2 {
		t.Fatalf("timed out: %v", res.TimedOut)
	}
	if res.TimedOut[0].EndedAt <= 0.5 {
		t.Fatalf("dropped at %v, before the timeout elapsed", res.TimedOut[0].EndedAt)
	}
	if len(res.Finished) != 1 {
		t.Fatalf("finished %d", len(res.Finished))
	}
}

func TestQueueTimeoutSparesEvictedRequests(t *testing.T) {
	// Requests that already streamed tokens are never abandoned: their
	// stall shows up as MTPOT instead.
	e, err := New(Config{
		Perf:             testPerf(t),
		Scheduler:        core.MustNewAggressive(0.99),
		CapacityOverride: 600,
		QueueTimeout:     0.05, // far below any re-admission wait
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SubmitAll(mkReqs(10, 20, 60, 100))
	res := e.Run()
	if res.Evictions == 0 {
		t.Fatal("scenario should evict")
	}
	for _, r := range res.TimedOut {
		if r.FirstTokenAt >= 0 {
			t.Fatalf("request %d dropped after streaming tokens", r.ID)
		}
	}
	// Every non-dropped request still completes.
	if len(res.Finished)+len(res.TimedOut)+len(res.Failed) != 10 {
		t.Fatalf("accounting: fin=%d drop=%d fail=%d", len(res.Finished), len(res.TimedOut), len(res.Failed))
	}
}

func TestQueueTimeoutDropHookAndState(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
		Scheduler:        core.MustNewConservative(1.0),
		CapacityOverride: 150,
		QueueTimeout:     0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	e.AddExitHook(func(now float64, r *request.Request) {
		if r.Outcome == request.OutcomeDropped {
			drops++
		}
	})
	e.Submit(request.New(1, 100, 60, 49, 0))
	e.Submit(request.New(2, 100, 10, 49, 0))
	e.Run()
	if drops != 1 {
		t.Fatalf("drop hook fired %d times", drops)
	}
}

func TestNegativeQueueTimeoutRejected(t *testing.T) {
	if _, err := New(Config{Perf: testPerf(t), Scheduler: core.NewOracle(), QueueTimeout: -1}); err == nil {
		t.Fatal("negative timeout accepted")
	}
	// A NaN timeout would silently disable timeouts.
	if _, err := New(Config{Perf: testPerf(t), Scheduler: core.NewOracle(), QueueTimeout: math.NaN()}); err == nil {
		t.Fatal("NaN timeout accepted")
	}
}

func TestSeedHistoryWarmStart(t *testing.T) {
	seed := make([]int, 100)
	for i := range seed {
		seed[i] = 30
	}
	e, err := New(Config{
		Perf:             testPerf(t),
		Scheduler:        core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.03, Rng: rng.New(1)}),
		CapacityOverride: 5000,
		SeedHistory:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.History().Len() != 100 {
		t.Fatalf("history len = %d", e.History().Len())
	}
	// Warm predictions (≈30) admit far more than cold max_new_tokens (2000)
	// would: all 40 requests fit (40 × (50+30) = 3200 ≤ 5000).
	e.SubmitAll(mkReqs(40, 50, 30, 2000))
	res := e.Run()
	if res.MeanBatchSize < 20 {
		t.Fatalf("warm start batch size %.1f too small — cold-start behaviour", res.MeanBatchSize)
	}
}

func TestColdStartConservativeByComparison(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
		Scheduler:        core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.03, Rng: rng.New(1)}),
		CapacityOverride: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SubmitAll(mkReqs(40, 50, 30, 2000))
	res := e.Run()
	// Cold start assumes max_new_tokens = 2000: only ~2 requests fit at a
	// time until the window fills (which takes 16 completions here).
	if res.MeanBatchSize > 20 {
		t.Fatalf("cold start batch size %.1f too large", res.MeanBatchSize)
	}
}

func TestMaxPrefillTokensCapsFusedPrefills(t *testing.T) {
	// 10 queued requests and a 1000-token prefill budget: every fused
	// prefill admits the longest queue-head prefix whose prompts fit the
	// budget, so each round takes exactly perPrefill prompts.
	for _, tc := range []struct {
		name               string
		prompt, perPrefill int
	}{
		{"400-token prompts", 400, 2},
		{"prompts of exactly half the budget", 500, 2},
		{"prompts of half the budget plus one", 501, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(Config{
				Perf:             testPerf(t),
				Scheduler:        core.NewOracle(),
				CapacityOverride: 50_000,
				MaxPrefillTokens: 1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			maxBatch := 0
			e.AddAdmitHook(func(now float64, round core.AdmitRound) {
				admitted := round.Admitted
				tokens := 0
				for _, r := range admitted {
					tokens += r.Footprint()
				}
				if tokens > 1000 {
					t.Fatalf("prefill of %d tokens exceeds the 1000 budget", tokens)
				}
				maxBatch = max(maxBatch, len(admitted))
			})
			e.SubmitAll(mkReqs(10, tc.prompt, 20, 50))
			res := e.Run()
			if len(res.Finished) != 10 {
				t.Fatalf("finished %d", len(res.Finished))
			}
			if maxBatch != tc.perPrefill {
				t.Fatalf("admitted at most %d prompts in one prefill, want %d", maxBatch, tc.perPrefill)
			}
			if want := 10 / tc.perPrefill; res.PrefillIters < want {
				t.Fatalf("prefill iterations %d, want ≥ %d", res.PrefillIters, want)
			}
		})
	}
}

func TestMaxPrefillTokensOversizedPromptStillServed(t *testing.T) {
	// A single prompt larger than the budget must still prefill (alone).
	e, err := New(Config{
		Perf:             testPerf(t),
		Scheduler:        core.NewOracle(),
		CapacityOverride: 50_000,
		MaxPrefillTokens: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(request.New(1, 5000, 10, 20, 0))
	res := e.Run()
	if len(res.Finished) != 1 {
		t.Fatalf("oversized prompt not served: %v", res.Failed)
	}
}

func TestMaxPrefillTokensReducesWorstStall(t *testing.T) {
	// Long prompts + live decode traffic: capping the fused prefill must
	// not worsen (and should improve) the worst inter-token stall.
	run := func(budget int) float64 {
		e := MustNew(Config{
			Perf:             testPerf(t),
			Scheduler:        core.NewOracle(),
			CapacityOverride: 100_000,
			MaxPrefillTokens: budget,
		})
		r := rng.New(4)
		for i := 0; i < 40; i++ {
			e.Submit(request.New(int64(i+1), 3000+r.Intn(1000), 200, 512, float64(i)*0.1))
		}
		res := e.Run()
		worst := 0.0
		for _, req := range res.Finished {
			if req.MTPOT() > worst {
				worst = req.MTPOT()
			}
		}
		return worst
	}
	capped := run(4096)
	unlimited := run(0)
	if capped > unlimited*1.05 {
		t.Fatalf("capped prefill MTPOT %v worse than unlimited %v", capped, unlimited)
	}
}

func TestFailHookFires(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
		Scheduler:        core.MustNewConservative(1.0),
		CapacityOverride: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	e.AddExitHook(func(now float64, r *request.Request) {
		if r.Outcome == request.OutcomeFailed {
			failed++
		}
	})
	e.Submit(request.New(1, 500, 5, 10, 0)) // unservable
	res := e.Run()
	if failed != 1 || len(res.Failed) != 1 {
		t.Fatalf("fail hook %d, failed %d", failed, len(res.Failed))
	}
}
