package engine_test

import (
	"slices"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// estimatorEntries is what a router's warm estimator over e holds when built
// now: a QuantileEntry for every running and waiting request, sorted.
func estimatorEntries(e *engine.Engine) []core.Entry {
	s := e.History().Sampler()
	var out []core.Entry
	push := func(r *request.Request) { out = append(out, core.QuantileEntry(r, s, 0.9)) }
	e.ForEachRunning(push)
	e.ForEachWaiting(push)
	slices.SortFunc(out, func(a, b core.Entry) int {
		if a.Current != b.Current {
			return a.Current - b.Current
		}
		return a.Remaining - b.Remaining
	})
	return out
}

func peakOf(entries []core.Entry) (peak, maxRem int) {
	var est core.PeakEstimator
	for _, en := range entries {
		est.Push(en)
	}
	return est.Peak(), est.MaxRemaining()
}

// TestAdmitOnlyStepKeepsEntries pins what the cluster keeps a warm estimator
// across on engine.StepAdmitOnly: an estimator built before such a step
// equals one rebuilt after it, entry for entry — the admitted requests moved
// from the waiting set into the batch with the entries they had — and the
// step released nothing and left the history window where it was.
func TestAdmitOnlyStepKeepsEntries(t *testing.T) {
	r := rng.New(3)
	hist := make([]int, 300)
	for k := range hist {
		_, hist[k] = workload.ShareGPT.Sample(r)
	}
	e := engine.MustNew(engine.Config{
		Perf:             rolePerf(),
		Scheduler:        core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(4)}),
		CapacityOverride: 8_000,
		SeedHistory:      hist,
	})
	reqs := workload.Build(workload.ShareGPT, r, 120, 1, 512)
	workload.AssignPoissonArrivals(reqs, r, 20, 0)
	e.SubmitAll(reqs)
	admitOnly := 0
	for {
		before, gen := estimatorEntries(e), e.History().Generation()
		if !e.Step() {
			break
		}
		if e.LastStep() != engine.StepAdmitOnly {
			continue
		}
		admitOnly++
		after := estimatorEntries(e)
		if e.ReleasedLastStep() || e.History().Generation() != gen || !slices.Equal(before, after) {
			t.Fatalf("admission step %d: released %v, window %d→%d, entries %v → %v",
				admitOnly, e.ReleasedLastStep(), gen, e.History().Generation(), before, after)
		}
		bp, bm := peakOf(before)
		if ap, am := peakOf(after); bp != ap || bm != am {
			t.Fatalf("admission step %d: peak %d → %d, longest remaining %d → %d", admitOnly, bp, ap, bm, am)
		}
	}
	if res := e.Snapshot(); len(res.Finished) != len(reqs) || admitOnly == 0 {
		t.Fatalf("%d of %d finished, %d admission steps: the run exercises nothing", len(res.Finished), len(reqs), admitOnly)
	}
}

// stepWatch counts, through an engine's hooks, what happened in the Step
// being watched: admissions that carried a swap-in or a prefix-cache stamp,
// drops, finishes and handoffs.
type stepWatch struct {
	admitted, stamped, hits, restores, swaps, left int
	// admitLeft counts the Steps that admitted and saw a request leave.
	admitLeft int
}

func watchSteps(e *engine.Engine) *stepWatch {
	w := &stepWatch{}
	e.AddAdmitHook(func(_ float64, round core.AdmitRound) {
		w.admitted += len(round.Admitted)
		for _, r := range round.Admitted {
			if r.CachedTokens > 0 {
				w.hits++
			}
			if r.RestoredTokens > 0 {
				w.restores++
			}
			if r.Swapped {
				w.swaps++
			}
			if r.Swapped || r.CachedTokens > 0 || r.RestoredTokens > 0 {
				w.stamped++
			}
		}
	})
	e.AddExitHook(func(float64, *request.Request) { w.left++ })
	return w
}

// TestAdmitOnlyStepExcludes pins every admission StepAdmitOnly must not
// describe: one that took prefix-cache hits, restored offloaded blocks or
// swapped a request back in, one in the same Step as a queue-timeout drop,
// and every admission of a chunked or prefill-only engine — where a request
// can also finish at its prefill. Each case must meet what it is there for.
func TestAdmitOnlyStepExcludes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		never bool // no Step of the engine may be admit-only
		build func(t *testing.T) (*engine.Engine, []*request.Request)
		met   func(w *stepWatch, res *engine.Result) bool
	}{
		{"prefix-hit", false, func(t *testing.T) (*engine.Engine, []*request.Request) {
			return cachedEngine(t, 60_000, 0), sessionWorkload(150, 1)
		}, func(w *stepWatch, _ *engine.Result) bool { return w.hits > 0 }},
		{"restore", false, func(t *testing.T) (*engine.Engine, []*request.Request) {
			return cachedEngine(t, 7_000, -1), sessionWorkload(150, 5)
		}, func(w *stepWatch, _ *engine.Result) bool { return w.restores > 0 }},
		{"swap-in", false, func(t *testing.T) (*engine.Engine, []*request.Request) {
			return engine.MustNew(engine.Config{
				Perf: rolePerf(), Scheduler: core.MustNewAggressive(0.99), Eviction: engine.Swap, CapacityOverride: 1200,
			}), sameReqs(20, 20, 60, 100)
		}, func(w *stepWatch, _ *engine.Result) bool { return w.swaps > 0 }},
		{"queue-timeout", false, timeoutBesideAdmission, func(w *stepWatch, res *engine.Result) bool {
			return len(res.TimedOut) == 1 && w.admitLeft > 0
		}},
		{"chunked", true, func(t *testing.T) (*engine.Engine, []*request.Request) {
			return engine.MustNew(engine.Config{
				Perf: rolePerf(), Scheduler: core.NewOracle(), CapacityOverride: 4000, MaxPrefillTokens: 128,
				Chunked: engine.ChunkConfig{Enabled: true, ChunkTokens: 64},
			}), sameReqs(12, 200, 120, 200)
		}, func(_ *stepWatch, res *engine.Result) bool { return res.PrefillChunks > 12 }},
		{"prefill-role", true, func(t *testing.T) (*engine.Engine, []*request.Request) {
			reqs := sameReqs(12, 200, 40, 64)
			for _, r := range reqs[:4] {
				r.TrueOutputLen = 1 // finishes at its prefill
			}
			return roleEngine(t, engine.RolePrefillOnly, 50_000), reqs
		}, func(_ *stepWatch, res *engine.Result) bool { return len(res.Finished) == 4 && len(res.HandedOff) == 8 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, reqs := tc.build(t)
			w := watchSteps(e)
			e.SubmitAll(reqs)
			for {
				admitted, stamped, left := w.admitted, w.stamped, w.left
				if !e.Step() {
					break
				}
				if w.admitted > admitted && w.left > left {
					w.admitLeft++
				}
				if e.LastStep() != engine.StepAdmitOnly {
					continue
				}
				if tc.never || w.stamped > stamped || w.left > left {
					t.Fatalf("admission step reported admit-only: %d stamped admissions, %d requests left the engine",
						w.stamped-stamped, w.left-left)
				}
			}
			if res := e.Snapshot(); !tc.met(w, res) {
				t.Fatalf("%+v: the run exercises nothing", w)
			}
		})
	}
}

// timeoutBesideAdmission builds a Step that drops one queued request and
// admits another: a pool that holds one request at a time, a long request
// running, and two queued behind it — the first of which waits out its
// timeout exactly when the running request finishes, in the Step that
// admits the second.
func timeoutBesideAdmission(t *testing.T) (*engine.Engine, []*request.Request) {
	build := func(timeout float64) (*engine.Engine, []*request.Request) {
		reqs := []*request.Request{
			request.New(1, 100, 100, 100, 0),
			request.New(2, 100, 10, 100, 0),
			request.New(3, 100, 10, 100, 0.001),
		}
		return engine.MustNew(engine.Config{
			Perf: rolePerf(), Scheduler: core.MustNewConservative(1.0), CapacityOverride: 300, QueueTimeout: timeout,
		}), reqs
	}
	// A dry run finds when the first request finishes.
	e, reqs := build(0)
	finishAt := -1.0
	e.AddExitHook(func(now float64, r *request.Request) {
		if r.ID == 1 && r.Outcome == request.OutcomeCompleted {
			finishAt = now
		}
	})
	e.SubmitAll(reqs)
	e.Run()
	if finishAt <= 0 {
		t.Fatal("the long request never finished")
	}
	return build(finishAt - 1e-9)
}

// sameReqs builds n identical requests arriving at t=0.
func sameReqs(n, input, output, maxNew int) []*request.Request {
	rs := make([]*request.Request, n)
	for i := range rs {
		rs[i] = request.New(int64(i+1), input, output, maxNew, 0)
	}
	return rs
}
