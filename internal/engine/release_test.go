package engine

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/request"
)

// TestSubmitAtPreservesArrivalTime pins the admission-queue release path:
// a request held at the cluster front and released late keeps its original
// ArrivalTime, so the hold is charged to TTFT — unlike Submit, which clamps
// ArrivalTime to the engine clock.
func TestSubmitAtPreservesArrivalTime(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 10_000)
	// Warm the clock past the request's arrival.
	warm := request.New(1, 100, 5, 50, 0)
	e.Submit(warm)
	e.Run()
	if e.Clock() <= 0 {
		t.Fatal("warm-up did not advance the clock")
	}

	held := request.New(2, 100, 5, 50, 0.5) // arrived long before the release
	releaseAt := e.Clock() + 3
	e.SubmitAt(held, releaseAt)
	if held.ArrivalTime != 0.5 {
		t.Fatalf("SubmitAt mutated ArrivalTime to %v", held.ArrivalTime)
	}
	e.Run()
	if held.State != request.Finished {
		t.Fatalf("held request state %v", held.State)
	}
	// The first token cannot precede the release, and TTFT counts from the
	// user's arrival — the cluster-front hold is not forgiven.
	if held.FirstTokenAt < releaseAt {
		t.Fatalf("first token at %v before release %v", held.FirstTokenAt, releaseAt)
	}
	if got, min := held.TTFT(), releaseAt-0.5; got < min {
		t.Fatalf("TTFT %v hides the hold (want ≥ %v)", got, min)
	}

	// SubmitAt in the past clamps the entry time to now, like Submit.
	late := request.New(3, 100, 5, 50, 1)
	e.SubmitAt(late, e.Clock()-10)
	e.Run()
	if late.State != request.Finished {
		t.Fatalf("late request state %v", late.State)
	}
}

// TestReleasedLastStep pins the capacity-event signal the cluster admission
// queue retries on: a Step that completes (or times out, or fails) a request
// reports released capacity; a pure decode step does not.
func TestReleasedLastStep(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 10_000)
	e.Submit(request.New(1, 100, 4, 50, 0))
	sawRelease := false
	steps := 0
	for e.Step() {
		steps++
		if e.ReleasedLastStep() {
			sawRelease = true
			if len(e.RunningRequests()) != 0 {
				t.Fatal("release reported while the request still runs")
			}
		} else if steps > 1 && len(e.RunningRequests()) == 0 && e.QueueLen() == 0 {
			t.Fatal("completion step did not report released capacity")
		}
	}
	if !sawRelease {
		t.Fatal("no step reported released capacity")
	}

	// Queue-timeout drops release the queued slot (the routing probe counts
	// queued requests toward the predicted peak).
	drop, err := New(Config{Perf: testPerf(t), Scheduler: core.MustNewConservative(1.0), CapacityOverride: 800, QueueTimeout: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	drop.Submit(request.New(1, 200, 400, 512, 0)) // reserves the pool for seconds
	drop.Submit(request.New(2, 200, 10, 512, 0))  // cannot reserve; will time out
	released := false
	for drop.Step() {
		if drop.ReleasedLastStep() {
			released = true
		}
	}
	res := drop.Snapshot()
	if len(res.TimedOut) != 1 {
		t.Fatalf("timed out %d, want 1", len(res.TimedOut))
	}
	if res.TimedOut[0].Outcome != request.OutcomeDropped {
		t.Fatalf("timed-out outcome %v", res.TimedOut[0].Outcome)
	}
	if !released {
		t.Fatal("drop never reported released capacity")
	}
	for _, r := range res.Finished {
		if r.Outcome != request.OutcomeCompleted {
			t.Fatalf("finished request outcome %v", r.Outcome)
		}
	}
}

// TestHandleFollowsMemory pins where a request's kv.Handle lives: it is live
// in the engine's pool exactly while the request holds memory (every token
// is emitted through it), it is zero again after eviction, completion and
// crash, and an admission of a request that still carries one is refused
// loudly instead of leaking the first allocation.
func TestHandleFollowsMemory(t *testing.T) {
	e := newEngine(t, core.MustNewAggressive(0.99), 1500) // tight: forces evictions
	e.AddTokenHook(func(_ float64, r *request.Request) {
		if !e.Pool().Allocated(r.KV) {
			t.Fatalf("request %d emitted a token without a live handle", r.ID)
		}
	})
	evicted := 0
	e.AddEvictHook(func(_ float64, r *request.Request) {
		evicted++
		if r.KV != (kv.Handle{}) {
			t.Fatalf("evicted request %d kept its handle", r.ID)
		}
	})
	reqs := mkReqs(12, 200, 120, 200)
	e.SubmitAll(reqs)
	for i := 0; i < 40 && e.Step(); i++ {
	}
	if e.Pool().ActiveRequests() != len(e.running) || len(e.running) == 0 {
		t.Fatalf("%d live allocations for %d running requests", e.Pool().ActiveRequests(), len(e.running))
	}
	for _, r := range e.Crash() {
		if r.KV != (kv.Handle{}) {
			t.Fatalf("orphan %d kept its handle", r.ID)
		}
	}
	if e.Pool().ActiveRequests() != 0 {
		t.Fatalf("%d allocations survived the crash", e.Pool().ActiveRequests())
	}
	for _, r := range reqs {
		r.ResetForRetry()
	}
	e.SubmitAll(reqs)
	res := e.Run()
	if len(res.Finished) != len(reqs) || evicted == 0 {
		t.Fatalf("finished %d of %d with %d evictions; scenario exercises nothing", len(res.Finished), len(reqs), evicted)
	}
	for _, r := range reqs {
		if r.KV != (kv.Handle{}) {
			t.Fatalf("finished request %d kept its handle", r.ID)
		}
	}
	if err := e.Pool().CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	stale := request.New(99, 100, 5, 50, e.Clock())
	stale.KV = func() kv.Handle { h, _ := e.Pool().Allocate(1); return h }()
	e.Submit(stale)
	defer func() {
		if recover() == nil {
			t.Fatal("admitting a request that already holds KV memory did not panic")
		}
	}()
	e.Run()
}

// TestPureDecodeLastStep pins the signal the cluster's routing probes keep a
// warm estimator across: whenever a Step reports a pure decode iteration,
// everything an estimator entry is made of moved the one way a decode step
// moves it — the same requests run, each one token further with one more
// token landed, the same requests wait, no chunk or prefix-cache stamp and
// no history window changed — over engines that admit, finish, evict at the
// memory edge, chunk prompts and drop timed-out requests between such steps.
// And a plain decode iteration is reported as one: most steps are.
func TestPureDecodeLastStep(t *testing.T) {
	type stamp struct{ generated, landed, cached, prefillDone int }
	for _, tc := range []struct {
		name string
		cfg  Config
		want func(res *Result) bool // the run met what it is there for
	}{
		{"evictions", Config{Scheduler: core.MustNewAggressive(0.99), CapacityOverride: 1500},
			func(res *Result) bool { return res.Evictions > 0 }},
		{"chunked", Config{Scheduler: core.NewOracle(), CapacityOverride: 4000, MaxPrefillTokens: 128,
			Chunked: ChunkConfig{Enabled: true, ChunkTokens: 64}},
			func(res *Result) bool { return res.PrefillChunks > 12 }},
		{"queue-timeout", Config{Scheduler: core.MustNewConservative(1.0), CapacityOverride: 1400, QueueTimeout: 0.5},
			func(res *Result) bool { return len(res.TimedOut) > 0 }},
	} {
		tc.cfg.Perf = testPerf(t)
		e, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		reqs := mkReqs(12, 200, 120, 200)
		for i, r := range reqs {
			r.ArrivalTime = 0.05 * float64(i) // arrivals land between decode steps
			r.TrueOutputLen -= 7 * i          // and finishes spread out
		}
		e.SubmitAll(reqs)
		steps, pure := 0, 0
		for {
			before := map[*request.Request]stamp{}
			e.ForEachRunning(func(r *request.Request) {
				before[r] = stamp{r.Generated, r.KVLanded(), r.CachedTokens, r.PrefillDone}
			})
			waiting := map[*request.Request]bool{}
			e.ForEachWaiting(func(r *request.Request) { waiting[r] = true })
			gen := e.History().Generation()
			if !e.Step() {
				break
			}
			steps++
			if !e.PureDecodeLastStep() {
				continue
			}
			pure++
			if e.ReleasedLastStep() || e.History().Generation() != gen || e.RunningLen() != len(before) || e.WaitingLen() != len(waiting) {
				t.Fatalf("%s step %d reported pure: released %v, window %d→%d, running %d→%d, waiting %d→%d", tc.name, steps,
					e.ReleasedLastStep(), gen, e.History().Generation(), len(before), e.RunningLen(), len(waiting), e.WaitingLen())
			}
			e.ForEachRunning(func(r *request.Request) {
				was, ok := before[r]
				if now := (stamp{r.Generated - 1, r.KVLanded() - 1, r.CachedTokens, r.PrefillDone}); !ok || now != was {
					t.Fatalf("%s step %d reported pure: request %d went %+v → %+v less a token (ran before: %v)", tc.name, steps, r.ID, was, now, ok)
				}
			})
			e.ForEachWaiting(func(r *request.Request) {
				if !waiting[r] {
					t.Fatalf("%s step %d reported pure: request %d joined the waiting set", tc.name, steps, r.ID)
				}
			})
		}
		res := e.Snapshot()
		if len(res.Finished)+len(res.TimedOut)+len(res.Failed) != len(reqs) || !tc.want(res) {
			t.Fatalf("%s: %v; the scenario exercises nothing", tc.name, res)
		}
		if pure*2 < steps || pure == steps {
			t.Fatalf("%s: %d of %d steps reported pure", tc.name, pure, steps)
		}
	}
}
