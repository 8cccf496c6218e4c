package engine

import (
	"fmt"
	"math"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// chunkEngine builds a mixed-role Past-Future engine with the given
// chunking configuration and room for a 64k prompt beside decode work.
func chunkEngine(t *testing.T, chunk ChunkConfig, maxPrefill int, seed uint64) *Engine {
	t.Helper()
	e, err := New(Config{
		Perf: testPerf(t),
		Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
			Reserved: 0.05, Rng: rng.New(seed),
		}),
		CapacityOverride: 220_000,
		MaxPrefillTokens: maxPrefill,
		Chunked:          chunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// longMixReqs synthesizes a blended chat + long-document arrival list with
// per-class TTFT deadlines stamped (tight for chat, loose for documents) —
// the signal the SLO-aware sizer schedules against. Hand-rolled rather than
// workload.LongCtxMix because the workload package imports engine.
func longMixReqs(n int, rate float64, seed uint64) []*request.Request {
	r := rng.New(seed)
	reqs := make([]*request.Request, n)
	at := 0.0
	for i := range reqs {
		at += r.Exp(1 / rate)
		in, out, budget := r.IntRange(40, 900), r.IntRange(16, 200), 6.0
		if r.Bool(0.15) { // long-document class
			in, out, budget = r.IntRange(16_384, 40_000), r.IntRange(16, 128), 45.0
		}
		q := request.New(int64(i+1), in, out, 256, at)
		q.TTFTDeadline = at + budget
		reqs[i] = q
	}
	return reqs
}

// TestChunkedPrefillConservation pins chunked prefill's accounting laws on
// the blended workload: every request completes under both policies, the
// total prompt tokens encoded are identical to the unchunked run (chunking
// reschedules prefill, it never re-encodes or skips), chunks demonstrably
// happened, and the unlanded-reservation gauge drains back to zero.
func TestChunkedPrefillConservation(t *testing.T) {
	const n = 120
	var expected int64
	for _, q := range longMixReqs(n, 6, 42) {
		expected += int64(q.Footprint())
	}
	run := func(chunk ChunkConfig) (*Engine, *Result) {
		e := chunkEngine(t, chunk, 2048, 7)
		e.SubmitAll(longMixReqs(n, 6, 42))
		return e, e.Run()
	}
	_, plain := run(ChunkConfig{})
	for _, chunk := range []ChunkConfig{
		{Enabled: true, Policy: ChunkGreedyFixed, ChunkTokens: 512},
		{Enabled: true, Policy: ChunkSLOAware, ChunkTokens: 512},
	} {
		e, res := run(chunk)
		if len(res.Finished) != n || len(res.Failed) != 0 {
			t.Fatalf("%v: %d finished, %d failed, want %d finished", chunk.Policy, len(res.Finished), len(res.Failed), n)
		}
		// Every prompt token is encoded exactly once; the only legitimate
		// source of extra encode work is recompute after an eviction.
		if res.PrefillComputeTokens < expected {
			t.Fatalf("%v: encoded %d prompt tokens, workload has %d — chunking skipped prompt work", chunk.Policy, res.PrefillComputeTokens, expected)
		}
		if res.PrefillComputeTokens > expected && res.Evictions == 0 {
			t.Fatalf("%v: encoded %d prompt tokens, workload has %d, no evictions to explain the excess", chunk.Policy, res.PrefillComputeTokens, expected)
		}
		if res.ChunkIters == 0 || res.PrefillChunks <= int64(res.ChunkIters) {
			t.Fatalf("%v: %d chunk iters, %d chunks — expected multi-chunk iterations", chunk.Policy, res.ChunkIters, res.PrefillChunks)
		}
		if e.chunkPending != 0 {
			t.Fatalf("%v: %d reserved tokens never landed", chunk.Policy, e.chunkPending)
		}
	}
	if plain.ChunkIters != 0 || plain.PrefillChunks != 0 {
		t.Fatalf("unchunked run recorded chunk counters: %d iters, %d chunks", plain.ChunkIters, plain.PrefillChunks)
	}
	if plain.PrefillComputeTokens < expected {
		t.Fatalf("unchunked run encoded %d prompt tokens, workload has %d", plain.PrefillComputeTokens, expected)
	}
}

// TestChunkPolicyEquivalence is the chunk sizers' decision-equivalence
// cross-check: with no TTFT deadline anywhere the SLO-aware sizer always
// carves its cap, so it must make bit-identical decisions to the greedy
// fixed-chunk reference at ChunkTokens = 4096 on the same workload — same
// clocks, same chunk counts, same per-request timings. Greedy at another
// chunk size must differ, or the workload does not exercise the size.
func TestChunkPolicyEquivalence(t *testing.T) {
	trace := func(chunk ChunkConfig) []string {
		e := chunkEngine(t, chunk, 16_384, 7)
		reqs := longMixReqs(120, 6, 42)
		for _, q := range reqs {
			q.TTFTDeadline = 0
		}
		e.SubmitAll(reqs)
		res := e.Run()
		out := []string{fmt.Sprintf("dur=%.9f steps=%d chunkIters=%d chunks=%d out=%d",
			res.Duration, res.DecodeSteps, res.ChunkIters, res.PrefillChunks, res.OutputTokens)}
		for _, r := range res.Finished {
			out = append(out, fmt.Sprintf("req%d first=%.9f fin=%.9f", r.ID, r.FirstTokenAt, r.EndedAt))
		}
		return out
	}
	greedy := trace(ChunkConfig{Enabled: true, Policy: ChunkGreedyFixed, ChunkTokens: 4096})
	slo := trace(ChunkConfig{Enabled: true, Policy: ChunkSLOAware})
	if len(greedy) != len(slo) {
		t.Fatalf("trace lengths differ: greedy %d, slo %d", len(greedy), len(slo))
	}
	for i := range greedy {
		if greedy[i] != slo[i] {
			t.Fatalf("decision %d differs:\ngreedy: %s\nslo:    %s", i, greedy[i], slo[i])
		}
	}
	if small := trace(ChunkConfig{Enabled: true, Policy: ChunkGreedyFixed, ChunkTokens: 512}); small[0] == greedy[0] {
		t.Fatalf("greedy at 512 and 4096 tokens run alike (%s): the workload does not exercise the chunk size", small[0])
	}
}

// TestChunkSizeAt pins the SLO-aware sizer's window: a chunk spends a
// quarter of the tightest waiter's slack, floored at 128 tokens and capped
// at 4096.
func TestChunkSizeAt(t *testing.T) {
	e := chunkEngine(t, ChunkConfig{Enabled: true, Policy: ChunkSLOAware}, 0, 1)
	e.clock = 10
	e.chunkSuffix = []float64{math.Inf(1), math.Inf(1)}
	perSecond := float64(e.cfg.Perf.PrefillTokensWithin(1))
	within := func(slack float64) int { return e.cfg.Perf.PrefillTokensWithin(slack * 0.25) }
	inside := 4 * 1000 / perSecond // a quarter of it encodes ~1000 tokens
	for _, tc := range []struct {
		name  string
		slack float64
		want  int
	}{
		{"deadline passed", -1, 128},
		{"no slack", 0, 128},
		{"slack below the floor", 4 * 10 / perSecond, 128},
		{"slack inside the window", inside, within(inside)},
		{"slack above the cap", 4 * 100_000 / perSecond, 4096},
		{"no deadline", math.Inf(1), 4096},
	} {
		if got := e.chunkSizeAt(0, e.clock+tc.slack); got != tc.want {
			t.Errorf("%s (slack %v): chunk %d, want %d", tc.name, tc.slack, got, tc.want)
		}
	}
	if n := within(inside); n <= 128 || n >= 4096 {
		t.Fatalf("the inside row's chunk %d is not inside (128, 4096)", n)
	}
}

// TestChunkedConfigValidation pins the constructor's chunking gates.
func TestChunkedConfigValidation(t *testing.T) {
	pm := testPerf(t)
	sched := func() core.Scheduler {
		return core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(1)})
	}
	bad := []Config{
		{Perf: pm, Scheduler: sched(), StaticBatchSize: 8, Chunked: ChunkConfig{Enabled: true}},
		{Perf: pm, Scheduler: sched(), Chunked: ChunkConfig{Enabled: true, ChunkTokens: -1}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("bad chunk config %d accepted", i)
		}
	}
	e, err := New(Config{Perf: pm, Scheduler: sched(), Chunked: ChunkConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if c := e.cfg.Chunked; c.ChunkTokens != 512 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

// TestChunkCursorSurvivesAccounting pins the estimator view of a mid-chunk
// request: landed KV plus the unprefilled tail must always reconstruct the
// full-footprint reservation, and the cursor clears on retry reset.
func TestChunkCursorSurvivesAccounting(t *testing.T) {
	r := request.New(1, 1000, 20, 64, 0)
	if r.KVLanded() != r.Footprint() || r.PrefillRemaining() != 0 {
		t.Fatal("unchunked request must report full footprint landed")
	}
	r.ChunkedPrefill = true
	r.PrefillDone = 300
	if r.KVLanded() != 300 || r.PrefillRemaining() != 700 {
		t.Fatalf("mid-chunk view: landed %d remaining %d", r.KVLanded(), r.PrefillRemaining())
	}
	if r.KVLanded()+r.PrefillRemaining() != r.Footprint() {
		t.Fatal("landed + remaining must equal the reservation")
	}
	r.ResetForRetry()
	if r.ChunkedPrefill || r.PrefillDone != 0 {
		t.Fatal("retry reset must clear the chunk cursor")
	}
}

// BenchmarkChunkSchedule measures the SLO-aware sizer's per-iteration
// scheduling work — the queue deadline scan, the suffix-min fill over the
// chunk pipeline, and per-entry sizing — at fleet-realistic depths. Must
// stay 0 allocs/op: it runs inside every chunked iteration.
func BenchmarkChunkSchedule(b *testing.B) {
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	e, err := New(Config{
		Perf: pm,
		Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
			Reserved: 0.05, Rng: rng.New(1),
		}),
		CapacityOverride: 1 << 20,
		Chunked:          ChunkConfig{Enabled: true, Policy: ChunkSLOAware},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		r := request.New(int64(i+1), 200, 30, 64, 0)
		r.TTFTDeadline = 1 + float64(i%13)*0.5
		e.queue.PushBack(r)
	}
	for i := 0; i < 64; i++ {
		r := request.New(int64(1000+i), 8192, 30, 64, 0)
		r.TTFTDeadline = 2 + float64(i%7)
		r.ChunkedPrefill = true
		e.prefilling = append(e.prefilling, r)
	}
	e.clock = 0.5
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		qt := e.chunkSignals()
		for idx := range e.prefilling {
			sink += e.chunkSizeAt(idx, qt)
		}
	}
	if sink == 0 || math.IsInf(float64(sink), 0) {
		b.Fatal("sizer returned nothing")
	}
}
