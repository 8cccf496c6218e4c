package cluster

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// cachedReplicas builds mixed-role engines with the prefix cache enabled.
func cachedReplicas(n, capacity, offload int, seed uint64) []*engine.Engine {
	pm := testPerf()
	out := make([]*engine.Engine, n)
	for i := range out {
		out[i] = engine.MustNew(engine.Config{
			Perf: pm,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(seed + uint64(i)),
			}),
			CapacityOverride: capacity,
			PrefixCache: engine.PrefixCacheConfig{
				Enabled: true, BlockTokens: 64, OffloadCapacityTokens: offload,
			},
		})
	}
	return out
}

// TestAffinityReducesPrefillCompute pins the point of cache-aware routing:
// on identical session traffic, affinity routing must not compute more
// prefill than cache-blind routing, and across the seed sweep it must
// compute strictly less in aggregate.
func TestAffinityReducesPrefillCompute(t *testing.T) {
	run := func(seed uint64, weight float64) (prefill, hits int64) {
		c := MustNewCluster(ClusterConfig{
			Pools: []Config{{
				Replicas:       cachedReplicas(3, 40_000, 0, seed),
				Policy:         FutureHeadroom,
				AffinityWeight: weight,
			}},
		})
		results := c.Serve(sessionReqs(workload.ShareGPT, 300, 60, seed), 1e9)
		for _, res := range results {
			prefill += res.PrefillComputeTokens
			hits += res.CacheHitTokens
		}
		return prefill, hits
	}
	var blindTotal, affTotal int64
	for seed := uint64(1); seed <= 3; seed++ {
		blind, blindHits := run(seed, 0)
		aff, affHits := run(seed, 0.5)
		if affHits < blindHits {
			t.Fatalf("seed %d: affinity hit %d < blind %d tokens", seed, affHits, blindHits)
		}
		blindTotal += blind
		affTotal += aff
	}
	if affTotal >= blindTotal {
		t.Fatalf("affinity routing computed %d prefill tokens, blind %d", affTotal, blindTotal)
	}
}
