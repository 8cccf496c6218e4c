package engine

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

func testPerf(t *testing.T) *perf.Model {
	t.Helper()
	m, err := perf.New(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newEngine(t *testing.T, sched core.Scheduler, capacity int) *Engine {
	t.Helper()
	e, err := New(Config{Perf: testPerf(t), Scheduler: sched, CapacityOverride: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mkReqs builds n identical requests arriving at t=0.
func mkReqs(n, input, output, maxNew int) []*request.Request {
	rs := make([]*request.Request, n)
	for i := range rs {
		rs[i] = request.New(int64(i+1), input, output, maxNew, 0)
	}
	return rs
}

func TestSingleRequestLifecycle(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 1000)
	r := request.New(1, 100, 10, 50, 0)
	e.Submit(r)
	res := e.Run()
	if len(res.Finished) != 1 || res.Finished[0] != r {
		t.Fatalf("finished = %v", res.Finished)
	}
	if r.Generated != 10 {
		t.Fatalf("generated = %d", r.Generated)
	}
	if r.TTFT() < 0 {
		t.Fatal("TTFT not recorded")
	}
	if r.State != request.Finished {
		t.Fatalf("state = %v", r.State)
	}
	// 1 prefill + 10 decode steps (every output token comes from a decode
	// step; the prefill only encodes the prompt).
	if res.PrefillIters != 1 || res.DecodeSteps != 10 {
		t.Fatalf("prefills=%d decodes=%d", res.PrefillIters, res.DecodeSteps)
	}
	if res.OutputTokens != 10 {
		t.Fatalf("output tokens = %d", res.OutputTokens)
	}
}

func TestMemoryFullyReleasedAfterRun(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 2000)
	e.SubmitAll(mkReqs(20, 50, 30, 100))
	e.Run()
	if e.Pool().UsedTokens() != 0 {
		t.Fatalf("leaked %d tokens", e.Pool().UsedTokens())
	}
	if err := e.Pool().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOracleNeverEvicts(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 1500)
	// Outputs far larger than prompts: an aggressive scheduler would evict.
	e.SubmitAll(mkReqs(30, 20, 80, 100))
	res := e.Run()
	if res.Evictions != 0 {
		t.Fatalf("oracle evicted %d times", res.Evictions)
	}
	if len(res.Finished) != 30 {
		t.Fatalf("finished %d of 30", len(res.Finished))
	}
	if res.FutureRequiredMax > 1.0 {
		t.Fatalf("oracle future peak %v exceeded capacity", res.FutureRequiredMax)
	}
}

func TestConservativeNeverEvicts(t *testing.T) {
	e := newEngine(t, core.MustNewConservative(1.0), 1500)
	e.SubmitAll(mkReqs(30, 20, 80, 100))
	res := e.Run()
	if res.Evictions != 0 {
		t.Fatalf("conservative evicted %d times", res.Evictions)
	}
	if len(res.Finished) != 30 {
		t.Fatalf("finished %d of 30", len(res.Finished))
	}
}

func TestAggressiveEvictsOnDecodeHeavy(t *testing.T) {
	e := newEngine(t, core.MustNewAggressive(0.99), 1500)
	// Tiny prompts, huge outputs: all 30 admitted instantly (600 tokens),
	// then the batch grows to 30×(20+80) = 3000 ≫ 1500 → evictions.
	e.SubmitAll(mkReqs(30, 20, 80, 100))
	res := e.Run()
	if res.Evictions == 0 {
		t.Fatal("aggressive did not evict on decode-heavy load")
	}
	if len(res.Finished) != 30 {
		t.Fatalf("finished %d of 30", len(res.Finished))
	}
	if res.FutureRequiredMax <= 1.0 {
		t.Fatal("aggressive future-required should exceed capacity")
	}
}

func TestEvictedRequestKeepsProgressAndFinishes(t *testing.T) {
	e := newEngine(t, core.MustNewAggressive(0.99), 500)
	e.SubmitAll(mkReqs(10, 20, 60, 100))
	res := e.Run()
	if res.Evictions == 0 {
		t.Fatal("expected evictions in this configuration")
	}
	for _, r := range res.Finished {
		if r.Generated != r.TrueOutputLen {
			t.Fatalf("request %d finished with %d of %d tokens", r.ID, r.Generated, r.TrueOutputLen)
		}
	}
	if len(res.Finished)+len(res.Failed) != 10 {
		t.Fatalf("finished %d + failed %d != 10", len(res.Finished), len(res.Failed))
	}
	// Recompute happened: evicted prompts were re-encoded.
	if res.RecomputeTokens == 0 {
		t.Fatal("no recompute tokens recorded despite evictions")
	}
}

func TestEvictionRaisesMTPOT(t *testing.T) {
	run := func(sched core.Scheduler) float64 {
		e := newEngine(t, sched, 800)
		e.SubmitAll(mkReqs(20, 20, 60, 100))
		res := e.Run()
		worst := 0.0
		for _, r := range res.Finished {
			if r.MTPOT() > worst {
				worst = r.MTPOT()
			}
		}
		return worst
	}
	evictor := run(core.MustNewAggressive(0.99))
	clean := run(core.NewOracle())
	if evictor <= clean {
		t.Fatalf("eviction MTPOT %v not worse than oracle %v", evictor, clean)
	}
}

func TestPastFutureBeatsAggressiveOnEvictions(t *testing.T) {
	mk := func(s core.Scheduler) *Result {
		e := newEngine(t, s, 2000)
		// Two phases share one history profile: outputs ~60.
		e.SubmitAll(mkReqs(60, 20, 60, 512))
		return e.Run()
	}
	pf := mk(core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(1)}))
	ag := mk(core.MustNewAggressive(0.99))
	if pf.Evictions >= ag.Evictions {
		t.Fatalf("past-future evictions %d not below aggressive %d", pf.Evictions, ag.Evictions)
	}
}

func TestHistoryWindowReceivesActualLengths(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 1000)
	e.SubmitAll(mkReqs(5, 30, 12, 100))
	e.Run()
	if e.History().Len() != 5 {
		t.Fatalf("history has %d entries", e.History().Len())
	}
	for _, v := range e.History().Values() {
		if v != 12 {
			t.Fatalf("history value %d, want 12", v)
		}
	}
}

func TestQueueingDelaysTTFT(t *testing.T) {
	// Capacity for roughly one request at a time: the second request queues
	// behind the first and its TTFT must exceed the first's.
	e := newEngine(t, core.MustNewConservative(1.0), 150)
	a := request.New(1, 50, 40, 60, 0)
	b := request.New(2, 50, 40, 60, 0)
	e.Submit(a)
	e.Submit(b)
	e.Run()
	if a.TTFT() <= 0 || b.TTFT() <= 0 {
		t.Fatal("TTFTs not recorded")
	}
	if b.TTFT() <= a.TTFT() {
		t.Fatalf("queued request TTFT %v not above first %v", b.TTFT(), a.TTFT())
	}
}

func TestArrivalTimesRespected(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 1000)
	early := request.New(1, 50, 5, 10, 0)
	late := request.New(2, 50, 5, 10, 100) // arrives at t=100
	e.Submit(late)
	e.Submit(early)
	res := e.Run()
	if len(res.Finished) != 2 {
		t.Fatalf("finished %d", len(res.Finished))
	}
	if late.FirstTokenAt < 100 {
		t.Fatalf("late request served at %v before its arrival", late.FirstTokenAt)
	}
	if early.FinishedAt >= late.FirstTokenAt {
		t.Fatal("early request should complete before the late one starts")
	}
}

func TestUnservableRequestFailed(t *testing.T) {
	e := newEngine(t, core.MustNewConservative(1.0), 100)
	e.Submit(request.New(1, 500, 5, 10, 0)) // prompt alone exceeds capacity
	res := e.Run()
	if len(res.Failed) != 1 || len(res.Finished) != 0 {
		t.Fatalf("failed=%d finished=%d", len(res.Failed), len(res.Finished))
	}
}

func TestUnservableDoesNotBlockQueue(t *testing.T) {
	e := newEngine(t, core.MustNewConservative(1.0), 100)
	e.Submit(request.New(1, 500, 5, 10, 0)) // unservable head
	e.Submit(request.New(2, 20, 5, 10, 0))  // fine
	res := e.Run()
	if len(res.Finished) != 1 || res.Finished[0].ID != 2 {
		t.Fatal("serviceable request blocked by unservable head")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func(seed uint64) (int, int, float64) {
		e := newEngine(t, core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.03, Rng: rng.New(seed)}), 1000)
		r := rng.New(7)
		for i := 0; i < 40; i++ {
			e.Submit(request.New(int64(i), 10+r.Intn(40), 5+r.Intn(60), 256, float64(i)*0.05))
		}
		res := e.Run()
		return len(res.Finished), res.DecodeSteps, res.Duration
	}
	f1, d1, t1 := run(42)
	f2, d2, t2 := run(42)
	if f1 != f2 || d1 != d2 || t1 != t2 {
		t.Fatalf("same seed diverged: (%d,%d,%v) vs (%d,%d,%v)", f1, d1, t1, f2, d2, t2)
	}
}

func TestClosedLoopViaOnFinish(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 1000)
	served := 0
	e.cfg.Hooks.OnFinish = func(now float64, r *request.Request) {
		served++
		if served < 5 {
			e.Submit(request.New(r.ID+100, 50, 10, 20, now))
		}
	}
	e.Submit(request.New(1, 50, 10, 20, 0))
	res := e.Run()
	if len(res.Finished) != 5 {
		t.Fatalf("closed loop finished %d, want 5", len(res.Finished))
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 1000)
	e.SubmitAll(mkReqs(200, 100, 200, 256))
	res := e.RunUntil(5.0)
	if res.Duration > 6.0 {
		t.Fatalf("ran %vs past deadline", res.Duration)
	}
	if len(res.Finished) == 200 {
		t.Fatal("deadline did not cut the run short")
	}
}

func TestSplitFuseCompletesAll(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
		Scheduler:        core.MustNewConservative(1.0),
		Strategy:         SplitFuse,
		SplitFuseBudget:  64,
		CapacityOverride: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SubmitAll(mkReqs(10, 100, 20, 150))
	res := e.Run()
	if len(res.Finished) != 10 {
		t.Fatalf("splitfuse finished %d of 10", len(res.Finished))
	}
	for _, r := range res.Finished {
		if r.Generated != 20 {
			t.Fatalf("request %d generated %d", r.ID, r.Generated)
		}
	}
	if e.Pool().UsedTokens() != 0 {
		t.Fatal("splitfuse leaked memory")
	}
}

func TestSplitFuseSmoothsMTPOT(t *testing.T) {
	// Splitfuse chunks big prompts across iterations, so running requests
	// never stall behind a monolithic prefill: worst-case MTPOT should not
	// exceed prefill-priority's.
	run := func(strategy Strategy) float64 {
		e := MustNew(Config{
			Perf:             testPerf(t),
			Scheduler:        core.MustNewConservative(1.0),
			Strategy:         strategy,
			SplitFuseBudget:  128,
			CapacityOverride: 100_000,
		})
		r := rng.New(3)
		for i := 0; i < 40; i++ {
			e.Submit(request.New(int64(i), 3000+r.Intn(1000), 100, 4096, float64(i)*0.02))
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
	if sf, pp := run(SplitFuse), run(PrefillPriority); sf > pp*1.05 {
		t.Fatalf("splitfuse MTPOT %v worse than prefill-priority %v", sf, pp)
	}
}

func TestStaticBatchMode(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
		Strategy:         StaticBatch,
		StaticBatchSize:  4,
		CapacityOverride: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Outputs 5, 10, 15, 20: the batch decodes until 20, wasting lanes.
	for i := 0; i < 4; i++ {
		e.Submit(request.New(int64(i+1), 100, (i+1)*5, 64, 0))
	}
	res := e.Run()
	if len(res.Finished) != 4 {
		t.Fatalf("static finished %d", len(res.Finished))
	}
	// Decode steps = longest output in the batch (padded lanes).
	if res.DecodeSteps != 20 {
		t.Fatalf("static decode steps = %d, want 20", res.DecodeSteps)
	}
	if e.Pool().UsedTokens() != 0 {
		t.Fatal("static mode leaked memory")
	}
}

func TestStaticBatchSlowerThanContinuous(t *testing.T) {
	mk := func(strategy Strategy, sched core.Scheduler) float64 {
		e := MustNew(Config{
			Perf:             testPerf(t),
			Scheduler:        sched,
			Strategy:         strategy,
			StaticBatchSize:  8,
			CapacityOverride: 50_000,
		})
		r := rng.New(11)
		for i := 0; i < 64; i++ {
			e.Submit(request.New(int64(i), 500+r.Intn(300), 20+r.Intn(300), 512, 0))
		}
		res := e.Run()
		return res.Throughput()
	}
	static := mk(StaticBatch, nil)
	continuous := mk(PrefillPriority, core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(2)}))
	if continuous <= static {
		t.Fatalf("continuous %v tok/s not above static %v", continuous, static)
	}
}

func TestBlockFragmentationAccounting(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
		Scheduler:        core.NewOracle(),
		BlockSize:        16,
		CapacityOverride: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SubmitAll(mkReqs(10, 33, 10, 64)) // 33+1 tokens → 3 blocks, 14 wasted
	res := e.Run()
	if len(res.Finished) != 10 {
		t.Fatalf("finished %d", len(res.Finished))
	}
	if res.PhysMemUtilization <= res.MemUtilization {
		t.Fatal("block pool should show physical > logical utilization")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing perf accepted")
	}
	if _, err := New(Config{Perf: testPerf(t)}); err == nil {
		t.Fatal("missing scheduler accepted")
	}
	if _, err := New(Config{Perf: testPerf(t), Scheduler: core.NewOracle(), BlockSize: -1}); err == nil {
		t.Fatal("negative block size accepted")
	}
	if _, err := New(Config{Perf: testPerf(t), Strategy: StaticBatch}); err != nil {
		t.Fatalf("static batch without scheduler rejected: %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	if PrefillPriority.String() != "prefill-priority" || SplitFuse.String() != "splitfuse" || StaticBatch.String() != "static-batch" {
		t.Fatal("strategy strings wrong")
	}
}

func TestResultHelpers(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 1000)
	e.SubmitAll(mkReqs(3, 50, 10, 20))
	res := e.Run()
	if res.Throughput() <= 0 {
		t.Fatal("throughput not positive")
	}
	if res.EvictionRate() != 0 {
		t.Fatal("eviction rate should be 0")
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestMemUtilizationBounded(t *testing.T) {
	e := newEngine(t, core.MustNewAggressive(0.95), 1000)
	e.SubmitAll(mkReqs(40, 30, 40, 100))
	res := e.Run()
	if res.MemUtilization < 0 || res.MemUtilization > 1 {
		t.Fatalf("mem utilization %v out of range", res.MemUtilization)
	}
	if res.MemUtilization == 0 {
		t.Fatal("mem utilization should be positive")
	}
}

func TestPoolInvariantsThroughoutRun(t *testing.T) {
	e := newEngine(t, core.MustNewAggressive(0.99), 600)
	check := func(now float64, it Iteration) {
		if err := e.Pool().CheckInvariants(); err != nil {
			t.Fatalf("at %v: %v", now, err)
		}
	}
	e.cfg.Hooks.OnIteration = check
	e.SubmitAll(mkReqs(20, 20, 50, 100))
	e.Run()
}

// TestSubmitAllMatchesSequentialSubmit pins the bulk-merge path: SubmitAll
// (append + one heapify) must hand the engine arrivals in exactly the order
// repeated Submit calls would — arrival time ascending, FIFO on ties.
func TestSubmitAllMatchesSequentialSubmit(t *testing.T) {
	build := func() []*request.Request {
		r := rng.New(99)
		rs := make([]*request.Request, 200)
		for i := range rs {
			// Coarse arrival grid so ties are common and FIFO order matters.
			at := float64(r.Intn(20))
			rs[i] = request.New(int64(i+1), 20+r.Intn(50), 10+r.Intn(40), 100, at)
		}
		return rs
	}
	drainOrder := func(e *Engine) []int64 {
		var order []int64
		for e.arrivals.Len() > 0 {
			order = append(order, e.arrivals.pop().r.ID)
		}
		return order
	}
	bulk := newEngine(t, core.NewOracle(), 5000)
	bulk.SubmitAll(build())
	seq := newEngine(t, core.NewOracle(), 5000)
	for _, r := range build() {
		seq.Submit(r)
	}
	b, s := drainOrder(bulk), drainOrder(seq)
	if len(b) != len(s) {
		t.Fatalf("lengths differ: %d vs %d", len(b), len(s))
	}
	for i := range b {
		if b[i] != s[i] {
			t.Fatalf("arrival %d differs: bulk %d, sequential %d", i, b[i], s[i])
		}
	}
}

// TestSubmitAllMergesIntoExistingHeap: bulk submissions interleave correctly
// with arrivals already pending.
func TestSubmitAllMergesIntoExistingHeap(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 5000)
	e.Submit(request.New(1, 10, 5, 20, 5))
	e.Submit(request.New(2, 10, 5, 20, 1))
	e.SubmitAll([]*request.Request{
		request.New(3, 10, 5, 20, 3),
		request.New(4, 10, 5, 20, 0.5),
		request.New(5, 10, 5, 20, 5), // ties after ID 1 (submitted earlier)
	})
	want := []int64{4, 2, 3, 1, 5}
	for i, id := range want {
		got := e.arrivals.pop().r.ID
		if got != id {
			t.Fatalf("pop %d = request %d, want %d", i, got, id)
		}
	}
}

var benchPool *kv.Pool // avoid dead-code elimination in benchmarks

func BenchmarkEngineDecodeHeavy(b *testing.B) {
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	for i := 0; i < b.N; i++ {
		e := MustNew(Config{
			Perf:             pm,
			Scheduler:        core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.03, Rng: rng.New(1)}),
			CapacityOverride: 20_000,
		})
		r := rng.New(5)
		for j := 0; j < 100; j++ {
			e.Submit(request.New(int64(j), 50+r.Intn(100), 50+r.Intn(200), 512, 0))
		}
		e.Run()
		benchPool = e.Pool()
	}
}

// BenchmarkEngineDecodeLong is the decode step with nothing else going on: 48
// requests of 4000 output tokens on a pool that never fills, so after one
// prefill every step but the last is a pure decode step. /coast is the engine
// as built; /token-hook carries a no-op token hook and walks its batch on
// every step — the per-token path the coasted step replaces.
// BenchmarkEngineDecodeHeavy finishes a request every few steps and sees
// next to none of the difference.
func BenchmarkEngineDecodeLong(b *testing.B) {
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	for _, tokenHook := range []bool{false, true} {
		name := "coast"
		if tokenHook {
			name = "token-hook"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := MustNew(Config{Perf: pm, Scheduler: core.MustNewConservative(1.0), CapacityOverride: 400_000})
				if tokenHook {
					e.AddTokenHook(func(float64, *request.Request) {})
				}
				e.SubmitAll(mkReqs(48, 64, 4000, 4096))
				if res := e.Run(); res.DecodeSteps != 4000 || (res.CoastedSteps > 0) == tokenHook {
					b.Fatalf("%d decode steps, %d coasted", res.DecodeSteps, res.CoastedSteps)
				}
				benchPool = e.Pool()
			}
		})
	}
}

// TestStepZeroAllocsNilRecorder pins the observability layer's engine-side
// zero-cost contract: with no recorder attached, a warm steady-state decode
// step allocates nothing — every emission site is a nil check, so tracing
// support costs disabled runs nothing on the hot path.
func TestStepZeroAllocsNilRecorder(t *testing.T) {
	e := newEngine(t, core.MustNewConservative(1.0), 200_000)
	// A large decode-heavy batch: admissions settle, then every measured
	// step is a pure decode iteration over warm storage — a coasted one.
	for _, r := range mkReqs(32, 64, 4000, 4096) {
		e.Submit(r)
	}
	for i := 0; i < 50; i++ {
		if !e.Step() {
			t.Fatal("engine drained during warmup; lengthen the requests")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !e.Step() {
			t.Fatal("engine drained mid-measurement; lengthen the requests")
		}
	})
	if allocs != 0 {
		t.Fatalf("recorder-disabled Step allocates %v per op, want 0", allocs)
	}
	if res := e.Snapshot(); res.CoastedSteps < 100 {
		t.Fatalf("%d of %d decode steps coasted; the measured steps were meant to", res.CoastedSteps, res.DecodeSteps)
	}
}
