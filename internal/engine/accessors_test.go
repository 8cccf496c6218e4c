package engine

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/request"
)

func TestObserverAccessorsMidRun(t *testing.T) {
	e := newEngine(t, core.MustNewConservative(1.0), 300)
	// Two requests: one fits, one must queue behind it.
	a := request.New(1, 100, 20, 150, 0)
	b := request.New(2, 100, 20, 150, 0)
	e.Submit(a)
	e.Submit(b)
	e.Step() // admission + prefill of a
	if e.Clock() <= 0 {
		t.Fatal("clock did not advance")
	}
	if e.RunningLen() != 1 || e.QueueLen() != 1 {
		t.Fatalf("running=%d queue=%d", e.RunningLen(), e.QueueLen())
	}
	running := e.RunningRequests()
	queued := e.WaitingRequests()
	if len(running) != 1 || running[0] != a {
		t.Fatalf("running snapshot: %v", running)
	}
	if len(queued) != 1 || queued[0] != b {
		t.Fatalf("queued snapshot: %v", queued)
	}
	// Snapshots are copies: mutating them must not affect the engine.
	running[0] = nil
	queued[0] = nil
	if e.RunningRequests()[0] != a || e.WaitingRequests()[0] != b {
		t.Fatal("snapshots aliased engine state")
	}
	e.Run()
}

// TestWaitingSetCountsSubmittedBeforeStep: from Submit until the engine's
// next Step a request is in the arrival heap, not the FCFS queue. The
// waiting-set observers must count it there, on every submission path, and
// stop counting it exactly when it is queued, admitted, or evacuated.
func TestWaitingSetCountsSubmittedBeforeStep(t *testing.T) {
	e := newEngine(t, core.MustNewConservative(1.0), 300)
	a := request.New(1, 100, 20, 150, 0)
	b := request.New(2, 100, 20, 150, 0)
	e.Submit(a)
	e.Submit(b)
	e.Step() // a runs, b queues
	c := request.New(3, 50, 5, 20, 0)
	d := request.New(4, 50, 5, 20, 0)
	e.Submit(c)
	e.SubmitAt(d, e.Clock()+1)
	if e.QueueLen() != 1 || e.WaitingLen() != 3 {
		t.Fatalf("queue %d, waiting %d; want 1 queued plus 2 submitted", e.QueueLen(), e.WaitingLen())
	}
	want := map[*request.Request]bool{b: true, c: true, d: true}
	check := func(label string, got []*request.Request) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d requests, want %d", label, len(got), len(want))
		}
		for _, r := range got {
			if !want[r] {
				t.Fatalf("%s: unexpected request %d", label, r.ID)
			}
		}
	}
	snapshot := e.WaitingRequests()
	check("WaitingRequests", snapshot)
	if snapshot[0] != b {
		t.Fatalf("WaitingRequests starts with request %d, want the FCFS queue head", snapshot[0].ID)
	}
	var walked []*request.Request
	e.ForEachWaiting(func(r *request.Request) { walked = append(walked, r) })
	check("ForEachWaiting", walked)

	e.Step() // c is due and moves to the queue; d is not
	if e.WaitingLen()+e.RunningLen() != 4 || e.WaitingLen() <= e.QueueLen() {
		t.Fatalf("after a step: queue %d, waiting %d, running %d", e.QueueLen(), e.WaitingLen(), e.RunningLen())
	}
	if orphans := e.Crash(); len(orphans) != 4 || e.WaitingLen() != 0 {
		t.Fatalf("crash evacuated %d of 4, %d still waiting", len(orphans), e.WaitingLen())
	}
}

func TestAllHookAddersChain(t *testing.T) {
	e := newEngine(t, core.MustNewAggressive(0.99), 500)
	var tokens, finishes, evicts, iters int
	e.AddTokenHook(func(float64, *request.Request) { tokens++ })
	e.AddTokenHook(func(float64, *request.Request) { tokens++ }) // chained: counts twice
	e.AddFinishHook(func(float64, *request.Request) { finishes++ })
	e.AddEvictHook(func(float64, *request.Request) { evicts++ })
	e.AddIterationHook(func(float64, Iteration) { iters++ })
	e.SubmitAll(mkReqs(10, 20, 40, 100))
	res := e.Run()
	if tokens != int(res.OutputTokens)*2 {
		t.Fatalf("token hook fired %d times for %d tokens", tokens, res.OutputTokens)
	}
	if finishes != len(res.Finished) {
		t.Fatalf("finish hook %d vs %d", finishes, len(res.Finished))
	}
	if evicts != res.Evictions {
		t.Fatalf("evict hook %d vs %d", evicts, res.Evictions)
	}
	if iters == 0 {
		t.Fatal("iteration hook never fired")
	}
}

func TestStaticBatchWaitsForArrivals(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
		Strategy:         StaticBatch,
		StaticBatchSize:  2,
		CapacityOverride: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// First batch at t=0; the next request arrives much later: the engine
	// must idle-jump to it and form a second batch.
	e.Submit(request.New(1, 50, 5, 20, 0))
	e.Submit(request.New(2, 50, 5, 20, 100))
	res := e.Run()
	if len(res.Finished) != 2 {
		t.Fatalf("finished %d", len(res.Finished))
	}
	late := res.Finished[1]
	if late.FirstTokenAt < 100 {
		t.Fatalf("late static request served at %v", late.FirstTokenAt)
	}
}

func TestStaticBatchUnservableHead(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
		Strategy:         StaticBatch,
		StaticBatchSize:  2,
		CapacityOverride: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(request.New(1, 500, 5, 20, 0)) // prompt exceeds capacity
	e.Submit(request.New(2, 40, 5, 20, 0))
	res := e.Run()
	if len(res.Failed) != 1 || res.Failed[0].ID != 1 {
		t.Fatalf("failed: %v", res.Failed)
	}
	if len(res.Finished) != 1 || res.Finished[0].ID != 2 {
		t.Fatalf("finished: %v", res.Finished)
	}
}

func TestResultEdgeRates(t *testing.T) {
	r := &Result{}
	if r.EvictionRate() != 0 || r.Throughput() != 0 {
		t.Fatal("zero-value result rates should be 0")
	}
	r.Finished = mkReqs(2, 10, 5, 10)
	r.Evictions = 3
	if r.EvictionRate() != 1.5 {
		t.Fatalf("eviction rate %v", r.EvictionRate())
	}
}

func TestIterationKindsReported(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 2000)
	kinds := map[string]int{}
	e.AddIterationHook(func(_ float64, it Iteration) { kinds[it.Kind]++ })
	e.SubmitAll(mkReqs(5, 50, 10, 20))
	e.Run()
	if kinds["prefill"] == 0 || kinds["decode"] == 0 {
		t.Fatalf("iteration kinds: %v", kinds)
	}
}

func TestHardwareAccessors(t *testing.T) {
	e := newEngine(t, core.MustNewConservative(1.0), 300)
	if got, want := e.KVBytesPerToken(), e.Perf().Spec().KVBytesPerToken(); got != want || got <= 0 {
		t.Fatalf("KVBytesPerToken %d, want %d (> 0)", got, want)
	}
	if got, want := e.CostWeight(), e.Perf().CostWeight(); got != want || got <= 0 {
		t.Fatalf("CostWeight %v, want %v (> 0)", got, want)
	}
}

// TestIterationBatchSizeCountsRequests pins Iteration.BatchSize to a request
// count on every iteration kind. "mixed" and "chunked" iterations used to
// report compute tokens there, so a 4096-token chunk read as a batch of
// 4096. The first iteration has no decode lanes yet, so it must report
// exactly the prompts that advanced a chunk; none may exceed the requests
// in flight.
func TestIterationBatchSizeCountsRequests(t *testing.T) {
	const n = 10
	pm := testPerf(t)
	for _, tc := range []struct {
		kind  string
		first int // prompts the first iteration's 64-token budget reaches
		cfg   Config
	}{
		{"mixed", 1, Config{Perf: pm, Scheduler: core.MustNewConservative(1.0), Strategy: SplitFuse,
			SplitFuseBudget: 64, CapacityOverride: 3000}},
		{"chunked", 2, Config{Perf: pm, Scheduler: core.MustNewConservative(1.0), MaxPrefillTokens: 64,
			CapacityOverride: 3000, Chunked: ChunkConfig{Enabled: true, ChunkTokens: 48}}},
	} {
		e, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int
		e.AddIterationHook(func(_ float64, it Iteration) {
			if it.Kind != tc.kind {
				t.Fatalf("%s engine ran a %q iteration", tc.kind, it.Kind)
			}
			if it.BatchSize < 1 || it.BatchSize > n {
				t.Fatalf("%s iteration reports batch %d with %d requests in flight", tc.kind, it.BatchSize, n)
			}
			sizes = append(sizes, it.BatchSize)
		})
		e.SubmitAll(mkReqs(n, 100, 20, 150))
		if res := e.Run(); len(res.Finished) != n {
			t.Fatalf("%s finished %d of %d", tc.kind, len(res.Finished), n)
		}
		if sizes[0] != tc.first {
			t.Fatalf("%s: first iteration reports batch %d, want %d chunking prompts", tc.kind, sizes[0], tc.first)
		}
	}
}
