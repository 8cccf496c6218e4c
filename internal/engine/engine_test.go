package engine

import (
	"math"
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
	if r.Outcome != request.OutcomeCompleted {
		t.Fatalf("state = %v", r.Outcome)
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

// observeMStar attaches a core.MStarObserver, without a control draw, to e.
func observeMStar(e *Engine) *core.MStarObserver {
	o := core.NewMStarObserver(nil)
	e.AddAdmitHook(o.Observe)
	return o
}

func TestOracleNeverEvicts(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 1500)
	truth := observeMStar(e)
	// Outputs far larger than prompts: an aggressive scheduler would evict.
	e.SubmitAll(mkReqs(30, 20, 80, 100))
	res := e.Run()
	if res.Evictions != 0 {
		t.Fatalf("oracle evicted %d times", res.Evictions)
	}
	if len(res.Finished) != 30 {
		t.Fatalf("finished %d of 30", len(res.Finished))
	}
	if truth.FutureRequiredMax() > 1.0 {
		t.Fatalf("oracle future peak %v exceeded capacity", truth.FutureRequiredMax())
	}
}

// TestMStarErrorOracleExact: the oracle predicts M* from the true lengths, so
// on an unchunked, untrimmed engine every round's predicted M* equals the
// true one the observer rebuilds after admission — error exactly 0, nothing
// under-predicted. A scheduler that predicts no M* is counted in no round.
func TestMStarErrorOracleExact(t *testing.T) {
	reqs := func() []*request.Request {
		rs := make([]*request.Request, 60)
		for i := range rs {
			rs[i] = request.New(int64(i+1), 10+(i*13)%70, 5+(i*37)%120, 150, float64(i)*0.02)
		}
		return rs
	}
	e := newEngine(t, core.NewOracle(), 1500)
	truth := observeMStar(e)
	e.SubmitAll(reqs())
	e.Run()
	res := truth.Scheduler()
	if res.Rounds == 0 {
		t.Fatal("no admission round compared the oracle's M* with the true one")
	}
	if res.RelErrMax != 0 || res.RelErrMean != 0 || res.UnderShare != 0 {
		t.Fatalf("oracle M* error: mean %v max %v under-share %v over %d rounds, want all 0",
			res.RelErrMean, res.RelErrMax, res.UnderShare, res.Rounds)
	}
	e = newEngine(t, core.MustNewConservative(1.0), 1500)
	truth = observeMStar(e)
	e.SubmitAll(reqs())
	e.Run()
	if n := truth.Scheduler().Rounds; n != 0 {
		t.Fatalf("conservative predicts no M*, yet %d rounds were compared", n)
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
	truth := observeMStar(e)
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
	if truth.FutureRequiredMax() <= 1.0 {
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
	if early.EndedAt >= late.FirstTokenAt {
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

// TestIdleEngineServesRefusedHead: a cold Past-Future engine predicts a
// request's cap, so on a pool smaller than prompt + cap it refuses even the
// empty batch's head. With nothing running no memory can ever free, so the
// engine serves the head alone, reporting the round to its admit hooks as
// unpriced; only a head whose footprint exceeds the pool fails.
func TestIdleEngineServesRefusedHead(t *testing.T) {
	e := newEngine(t, core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.03, Rng: rng.New(1)}), 1000)
	var rounds []core.AdmitRound
	e.AddAdmitHook(func(_ float64, round core.AdmitRound) {
		round.View = &core.View{PredictedPeak: round.View.PredictedPeak}
		rounds = append(rounds, round)
	})
	e.Submit(request.New(1, 8, 2, 1000, 0))
	e.Submit(request.New(2, 1001, 2, 1000, 0)) // larger than the pool
	res := e.Run()
	if len(res.Finished) != 1 || res.Finished[0].ID != 1 || res.Finished[0].Generated != 2 {
		t.Fatalf("finished %v, want request 1 with its 2 tokens", res.Finished)
	}
	if len(res.Failed) != 1 || res.Failed[0].ID != 2 {
		t.Fatalf("failed %v, want request 2", res.Failed)
	}
	if len(rounds) != 1 || rounds[0].Whole || rounds[0].View.PredictedPeak != 0 || len(rounds[0].Admitted) != 1 {
		t.Fatalf("admit rounds %+v, want one unpriced round admitting the head", rounds)
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

func TestClosedLoopViaExitHook(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 1000)
	served := 0
	e.AddExitHook(func(now float64, r *request.Request) {
		served++
		if served < 5 {
			e.Submit(request.New(r.ID+100, 50, 10, 20, now))
		}
	})
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

func TestChunkedBudgetCompletesAll(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
		Scheduler:        core.MustNewConservative(1.0),
		MaxPrefillTokens: 64,
		CapacityOverride: 3000,
		Chunked:          ChunkConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SubmitAll(mkReqs(10, 100, 20, 150))
	res := e.Run()
	if len(res.Finished) != 10 {
		t.Fatalf("chunked finished %d of 10", len(res.Finished))
	}
	for _, r := range res.Finished {
		if r.Generated != 20 {
			t.Fatalf("request %d generated %d", r.ID, r.Generated)
		}
	}
	if e.Pool().UsedTokens() != 0 {
		t.Fatal("chunked prefill leaked memory")
	}
}

func TestChunkedSmoothsMTPOT(t *testing.T) {
	// Chunked prefill spreads big prompts across iterations, so running
	// requests never stall behind a monolithic prefill: worst-case MTPOT
	// should not exceed fused prefill's.
	run := func(chunked bool) float64 {
		cfg := Config{Perf: testPerf(t), Scheduler: core.MustNewConservative(1.0), CapacityOverride: 100_000}
		if chunked {
			cfg.Chunked, cfg.MaxPrefillTokens = ChunkConfig{Enabled: true}, 128
		}
		e := MustNew(cfg)
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
	if ch, fused := run(true), run(false); ch > fused*1.05 {
		t.Fatalf("chunked MTPOT %v worse than fused prefill %v", ch, fused)
	}
}

func TestStaticBatchMode(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
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
	mk := func(staticSize int, sched core.Scheduler) float64 {
		e := MustNew(Config{
			Perf:             testPerf(t),
			Scheduler:        sched,
			StaticBatchSize:  staticSize,
			CapacityOverride: 50_000,
		})
		r := rng.New(11)
		for i := 0; i < 64; i++ {
			e.Submit(request.New(int64(i), 500+r.Intn(300), 20+r.Intn(300), 512, 0))
		}
		res := e.Run()
		return res.Throughput()
	}
	static := mk(8, nil)
	continuous := mk(0, core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(2)}))
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
	pm, oracle := testPerf(t), core.NewOracle()
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"missing perf", Config{Scheduler: oracle}, false},
		{"missing scheduler", Config{Perf: pm}, false},
		{"negative block size", Config{Perf: pm, Scheduler: oracle, BlockSize: -1}, false},
		{"block above capacity", Config{Perf: pm, Scheduler: oracle, BlockSize: 1 << 30}, false},
		{"negative static batch", Config{Perf: pm, StaticBatchSize: -1}, false},
		{"negative capacity", Config{Perf: pm, Scheduler: oracle, CapacityOverride: -1}, false},
		{"negative prefill budget", Config{Perf: pm, Scheduler: oracle, MaxPrefillTokens: -1}, false},
		{"history window past its bound", Config{Perf: pm, Scheduler: oracle, HistoryWindow: maxHistoryWindow + 1}, false},
		{"NaN queue timeout", Config{Perf: pm, Scheduler: oracle, QueueTimeout: math.NaN()}, false},
		{"unknown role", Config{Perf: pm, Scheduler: oracle, Role: RoleDecodeOnly + 1}, false},
		{"unknown eviction policy", Config{Perf: pm, Scheduler: oracle, Eviction: Swap + 1}, false},
		{"unknown chunk policy", Config{Perf: pm, Scheduler: oracle, Chunked: ChunkConfig{Policy: -1}}, false},
		{"static batch without scheduler", Config{Perf: pm, StaticBatchSize: 1}, true},
		{"block of the whole capacity", Config{Perf: pm, Scheduler: oracle, BlockSize: 64, CapacityOverride: 64}, true},
	} {
		if _, err := New(tc.cfg); (err == nil) != tc.ok {
			t.Errorf("%s: New returned %v", tc.name, err)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 1000)
	e.SubmitAll(mkReqs(3, 50, 10, 20))
	res := e.Run()
	if res.Throughput() <= 0 {
		t.Fatal("throughput not positive")
	}
	if res.Evictions != 0 {
		t.Fatal("the oracle evicted")
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
	e.AddIterationHook(check)
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
			order = append(order, e.arrivals.Pop().r.ID)
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
		got := e.arrivals.Pop().r.ID
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
// every step — the per-token path the coasted step replaces; /queued is
// /coast with a 49th request queued behind the batch that Conservative
// refuses until the batch drains (refusedBehind), so every step holds an
// admission round that admits nothing; /staggered spreads the outputs over
// 64–4000 tokens and re-submits each request as it finishes, 192 in all, so
// that finishes and first tokens recur — those steps coast too, and the row
// fails if more than a handful of its decode steps take the per-token path.
// BenchmarkEngineDecodeHeavy finishes a request every few steps and is mostly
// admission rounds and prefills.
func BenchmarkEngineDecodeLong(b *testing.B) {
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	for _, c := range []struct {
		name      string
		tokenHook bool
		queued    bool
		staggered bool
	}{{"coast", false, false, false}, {"token-hook", true, false, false}, {"queued", false, true, false},
		{"staggered", false, false, true}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				const capacity = 400_000
				e := MustNew(Config{Perf: pm, Scheduler: core.MustNewConservative(1.0), CapacityOverride: capacity})
				if c.tokenHook {
					e.AddTokenHook(func(float64, *request.Request) {})
				}
				reqs := mkReqs(48, 64, 4000, 4096)
				steps := 4000
				if c.queued {
					reqs = append(reqs, refusedBehind(reqs, capacity))
					steps++ // the 49th request's one token, after the batch drained
				}
				if c.staggered {
					staggerResubmit(e, reqs, 4*len(reqs))
				}
				e.SubmitAll(reqs)
				res := e.Run()
				if c.staggered {
					if perToken := res.DecodeSteps - res.CoastedSteps; len(res.Finished) != 4*len(reqs) || perToken > 4 {
						b.Fatalf("%d finished; %d of %d decode steps on the per-token path", len(res.Finished), perToken, res.DecodeSteps)
					}
				} else if res.DecodeSteps != steps || (res.CoastedSteps > 0) == c.tokenHook {
					b.Fatalf("%d decode steps, %d coasted", res.DecodeSteps, res.CoastedSteps)
				}
				benchPool = e.Pool()
			}
		})
	}
}

// staggerResubmit spreads the outputs of batch over 64–4000 tokens and
// re-submits each request's twin when it finishes, until total have been
// submitted.
func staggerResubmit(e *Engine, batch []*request.Request, total int) {
	for i, r := range batch {
		r.TrueOutputLen = 64 + i*(4000-64)/(len(batch)-1)
	}
	next := int64(len(batch))
	e.AddExitHook(func(now float64, r *request.Request) {
		if next < int64(total) {
			next++
			e.Submit(request.New(next, r.InputLen, r.TrueOutputLen, r.MaxNewTokens, now))
		}
	})
}

// refusedBehind returns a request, queued behind batch at time 0, whose
// worst case (prompt + max_new_tokens) Conservative cannot reserve beside
// the batch's on a pool of the given capacity: it is admitted only once the
// batch has drained, then emits one token.
func refusedBehind(batch []*request.Request, capacity int) *request.Request {
	reserved := 0
	for _, r := range batch {
		reserved += r.InputLen + r.MaxNewTokens
	}
	return request.New(int64(len(batch)+1), 64, 1, capacity-reserved, 0)
}

// TestStepZeroAllocsNilRecorder pins the observability layer's engine-side
// zero-cost contract: with no recorder attached, a warm steady-state step
// allocates nothing — every emission site is a nil check, so tracing support
// costs disabled runs nothing on the hot path. With a request queued that the
// scheduler refuses, every measured step also holds an admission round that
// admits nothing. In the admitting cases every measured op holds a
// Past-Future round that admits, once bare and once with a
// core.MStarObserver and its control draw and an exit hook attached: neither
// the true M* nor the hooks cost an observed engine an allocation.
func TestStepZeroAllocsNilRecorder(t *testing.T) {
	for _, c := range []struct {
		name      string
		queued    bool
		admitting bool
		observed  bool
	}{{"decode", false, false, false}, {"refused", true, false, false},
		{"admitting", false, true, false}, {"admitting-observed", false, true, true}} {
		const capacity = 200_000
		var e *Engine
		var reqs []*request.Request
		if c.admitting {
			e = admittingEngine(t, c.observed)
			// Short varied outputs behind a full batch: nearly every decode
			// step finishes someone, and the next step admits the queue's
			// head in their place.
			for i := 0; i < 4000; i++ {
				reqs = append(reqs, request.New(int64(i+1), 64, 1+(i*7)%32, 32, 0))
			}
		} else {
			e = newEngine(t, core.MustNewConservative(1.0), capacity)
			// A large decode-heavy batch: admissions settle, then every
			// measured step is a pure decode iteration over warm storage — a
			// coasted one.
			reqs = mkReqs(32, 64, 4000, 4096)
			if c.queued {
				reqs = append(reqs, refusedBehind(reqs, capacity))
			}
		}
		for _, r := range reqs {
			e.Submit(r)
		}
		for i := 0; i < 50; i++ {
			if !e.Step() {
				t.Fatal("engine drained during warmup; lengthen the requests")
			}
		}
		// An admitting op is two Steps, the round and the prefill after it,
		// so that one allocation per round reads as one per op.
		steps := 1
		if c.admitting {
			steps = 2
		}
		before := e.Snapshot()
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < steps; i++ {
				if !e.Step() {
					t.Fatal("engine drained mid-measurement; lengthen the requests")
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: recorder-disabled Step allocates %v per op, want 0", c.name, allocs)
		}
		res := e.Snapshot()
		if c.admitting {
			if rounds := res.PrefillIters - before.PrefillIters; rounds < 95 {
				t.Fatalf("%s: %d of 101 measured ops admitted; each was meant to", c.name, rounds)
			}
		} else if res.CoastedSteps < 100 || e.QueueLen() != len(reqs)-32 {
			t.Fatalf("%s: %d of %d decode steps coasted, %d queued; the measured steps were meant to coast",
				c.name, res.CoastedSteps, res.DecodeSteps, e.QueueLen())
		}
	}
}

// admittingEngine returns a sampling Past-Future engine with a warm window on
// a pool that holds about two hundred short requests, optionally with a
// core.MStarObserver and its control draw and an exit hook attached.
func admittingEngine(t *testing.T, observed bool) *Engine {
	t.Helper()
	seed := make([]int, 200)
	for i := range seed {
		seed[i] = 1 + (i*7)%32
	}
	e, err := New(Config{
		Perf:             testPerf(t),
		Scheduler:        core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(1)}),
		CapacityOverride: 20_000,
		SeedHistory:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if observed {
		control := core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(2)})
		e.AddAdmitHook(core.NewMStarObserver(control).Observe)
		exits := 0
		e.AddExitHook(func(float64, *request.Request) { exits++ })
	}
	return e
}
