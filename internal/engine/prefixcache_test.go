package engine_test

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

func cachedEngine(t *testing.T, capacity, offload int) *engine.Engine {
	t.Helper()
	return engine.MustNew(engine.Config{
		Perf:             rolePerf(),
		Scheduler:        core.MustNewAggressive(0.95),
		CapacityOverride: capacity,
		PrefixCache: engine.PrefixCacheConfig{
			Enabled: true, BlockTokens: 64, OffloadCapacityTokens: offload,
		},
	})
}

func sessionWorkload(n int, seed uint64) []*request.Request {
	gen, err := workload.NewSessions(workload.SessionsConfig{
		Base:               workload.ShareGPT,
		BlockTokens:        64,
		SystemPromptTokens: 256,
		SharedSystemRatio:  0.7,
		TurnProb:           0.6,
		MaxTurns:           6,
		MaxInputTokens:     3000,
	})
	if err != nil {
		panic(err)
	}
	r := rng.New(seed)
	reqs := workload.Build(gen, r, n, 1, 512)
	workload.AssignPoissonArrivals(reqs, r, 40, 0)
	return reqs
}

// A caching engine serving multi-turn sessions must serve part of the
// prompt stream from resident blocks: hits accrue, and the prefill compute
// actually charged falls short of the arriving prompt tokens by at least
// the hit volume.
func TestPrefixCacheHitsAcrossTurns(t *testing.T) {
	e := cachedEngine(t, 60_000, 0)
	reqs := sessionWorkload(150, 5)
	for _, r := range reqs {
		e.Submit(r)
	}
	res := e.Run()
	if len(res.Finished) != len(reqs) {
		t.Fatalf("finished %d of %d", len(res.Finished), len(reqs))
	}
	if res.CacheHitTokens == 0 {
		t.Fatal("multi-turn run produced no cache hits")
	}
	if res.PrefillComputeTokens >= res.InputTokens {
		t.Fatalf("prefill compute %d not below input tokens %d despite %d hit tokens",
			res.PrefillComputeTokens, res.InputTokens, res.CacheHitTokens)
	}
	// Eviction re-admissions re-encode tokens beyond InputTokens, so the
	// observable saving is the hit volume less the recompute overhead.
	if saved := res.InputTokens - res.PrefillComputeTokens; saved+res.RecomputeTokens < res.CacheHitTokens {
		t.Fatalf("saved %d (+%d recompute) prompt tokens but recorded %d hits",
			saved, res.RecomputeTokens, res.CacheHitTokens)
	}
	if res.PrefixCache.HitTokens != res.CacheHitTokens {
		t.Fatalf("pool hit accounting %d != engine counter %d", res.PrefixCache.HitTokens, res.CacheHitTokens)
	}
}

// With caching off, prefix hashes on the requests must be completely inert:
// the run is bit-identical to the same workload with the hashes stripped.
func TestPrefixCacheDisabledInert(t *testing.T) {
	run := func(strip bool) *engine.Result {
		e := engine.MustNew(engine.Config{
			Perf:             rolePerf(),
			Scheduler:        core.MustNewAggressive(0.95),
			CapacityOverride: 9_000,
		})
		reqs := sessionWorkload(150, 9)
		for _, r := range reqs {
			if strip {
				r.PrefixHashes = nil
				r.SessionID, r.Turn = 0, 0
			}
			e.Submit(r)
		}
		return e.Run()
	}
	hashed, stripped := run(false), run(true)
	if hashed.CacheHitTokens != 0 || hashed.CacheRestoredTokens != 0 {
		t.Fatalf("caching-off run recorded cache traffic: %d hit, %d restored",
			hashed.CacheHitTokens, hashed.CacheRestoredTokens)
	}
	if hashed.Duration != stripped.Duration ||
		hashed.DecodeSteps != stripped.DecodeSteps ||
		hashed.PrefillIters != stripped.PrefillIters ||
		hashed.Evictions != stripped.Evictions ||
		hashed.Admissions != stripped.Admissions ||
		hashed.OutputTokens != stripped.OutputTokens ||
		hashed.RecomputeTokens != stripped.RecomputeTokens ||
		hashed.PrefillComputeTokens != stripped.PrefillComputeTokens {
		t.Fatalf("hashed run diverged from stripped run:\nhashed:   %+v\nstripped: %+v", hashed, stripped)
	}
	if len(hashed.Finished) != len(stripped.Finished) {
		t.Fatalf("finished %d vs %d", len(hashed.Finished), len(stripped.Finished))
	}
	for i := range hashed.Finished {
		h, s := hashed.Finished[i], stripped.Finished[i]
		if h.ID != s.ID || h.FirstTokenAt != s.FirstTokenAt || h.EndedAt != s.EndedAt {
			t.Fatalf("finished %d differs: %d@%v/%v vs %d@%v/%v",
				i, h.ID, h.FirstTokenAt, h.EndedAt, s.ID, s.FirstTokenAt, s.EndedAt)
		}
	}
}

// Under memory pressure the cache must evict refs-0 blocks (never resident
// work), spill them to the offload tier, and restore them for later turns
// at wire cost — with every request still finishing exactly once.
func TestPrefixCacheEvictAndRestore(t *testing.T) {
	e := cachedEngine(t, 7_000, -1) // unbounded host offload
	reqs := sessionWorkload(150, 5)
	for _, r := range reqs {
		e.Submit(r)
	}
	res := e.Run()
	if len(res.Finished) != len(reqs) {
		t.Fatalf("finished %d of %d", len(res.Finished), len(reqs))
	}
	if res.PrefixCache.EvictedBlocks == 0 {
		t.Fatal("tight pool evicted no cache blocks")
	}
	if res.PrefixCache.SpilledBlocks == 0 {
		t.Fatal("evictions spilled nothing to the offload tier")
	}
	if res.CacheRestoredTokens == 0 {
		t.Fatal("no offloaded prefix was ever restored")
	}
	if res.CacheHitTokens == 0 {
		t.Fatal("no resident hits under pressure")
	}
}

// Crash must drop the device-resident cache (a restart loses GPU memory)
// while the engine remains fully servable afterwards.
func TestPrefixCacheCrashDrop(t *testing.T) {
	e := cachedEngine(t, 60_000, 0)
	reqs := sessionWorkload(60, 7)
	for _, r := range reqs {
		e.Submit(r)
	}
	for i := 0; i < 200 && e.Step(); i++ {
	}
	if e.Pool().PrefixStats().ResidentBlocks == 0 {
		t.Fatal("scenario broken: nothing resident before the crash")
	}
	orphans := e.Crash()
	st := e.Pool().PrefixStats()
	if st.ResidentBlocks != 0 {
		t.Fatalf("%d blocks survived the crash", st.ResidentBlocks)
	}
	if st.DroppedBlocks == 0 {
		t.Fatal("crash dropped no blocks")
	}
	for _, r := range orphans {
		r.ResetForRetry()
		e.Submit(r)
	}
	res := e.Run()
	want := map[int64]bool{}
	for _, r := range reqs {
		want[r.ID] = true
	}
	for _, r := range res.Finished {
		delete(want, r.ID)
	}
	if len(want) != 0 {
		t.Fatalf("%d requests never finished after the crash", len(want))
	}
}
