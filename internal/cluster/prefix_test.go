package cluster

import (
	"fmt"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// sessionReqs builds a multi-turn conversation arrival list: shared system
// prompts, growing per-turn histories, prefix hashes attached.
func sessionReqs(n int, rate float64, seed uint64) []*request.Request {
	gen, err := workload.NewSessions(workload.SessionsConfig{
		Base:               workload.ShareGPT,
		BlockTokens:        64,
		SystemPromptTokens: 256,
		SharedSystemRatio:  0.7,
		TurnProb:           0.6,
		MaxTurns:           6,
		Cooldown:           2,
		MaxInputTokens:     3000,
	})
	if err != nil {
		panic(err)
	}
	r := rng.New(seed)
	reqs := workload.Build(gen, r, n, 1, 512)
	workload.AssignPoissonArrivals(reqs, r, rate, 0)
	return reqs
}

// stripPrefix removes every prefix-cache stamp, leaving plain requests.
func stripPrefix(reqs []*request.Request) []*request.Request {
	for _, r := range reqs {
		r.PrefixHashes = nil
		r.SessionID, r.Turn = 0, 0
	}
	return reqs
}

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

// runPrefixPin drives the disaggregated storm scenario of the seam tests on
// session traffic, with a non-zero AffinityWeight configured on the entry
// pool but caching disabled on every engine. strip removes the prefix
// stamps before serving.
func runPrefixPin(seed uint64, strip bool, flt *FaultConfig) decisionTrace {
	var tr decisionTrace
	c := prefixCluster(seed, flt, nil, &tr)
	reqs := sessionReqs(350, 60, seed)
	if strip {
		stripPrefix(reqs)
	}
	tr.collect(c, c.Serve(reqs, 1e9), seamSLA)
	return tr
}

// prefixCluster is seamCluster with AffinityWeight set on the entry pool.
func prefixCluster(seed uint64, flt *FaultConfig, recorder obs.Recorder, tr *decisionTrace) *Cluster {
	planner := func(max int) *PlannerConfig {
		return &PlannerConfig{
			SLA: seamSLA, Min: 1, Max: max, Interval: 5,
			Predictor: HoltPredictor, ActivationDelay: 1,
		}
	}
	return MustNewCluster(ClusterConfig{
		Pools: []Config{
			{
				Role: engine.RolePrefillOnly, Replicas: prefillReplicas(2, 20_000), Policy: FutureHeadroom,
				Planner: planner(2), AffinityWeight: 0.35, OnRoute: tr.onRoute(0),
			},
			{
				Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(3, 12_000, seed), Policy: FutureHeadroom,
				Planner: planner(3), OnRoute: tr.onRoute(1),
			},
		},
		Link:      kv.MustNewLink(50e9, 0.002),
		Admission: &AdmissionConfig{TTFTBudget: seamSLA.TTFT, Shed: true, Slack: 0.5},
		Faults:    flt,
		Recorder:  recorder,
	})
}

// TestPrefixDisabledEquivalence is the opt-in pin: with caching disabled on
// every engine, prefix hashes riding on the requests — and a configured
// AffinityWeight — must change no decision anywhere: routing, plans, sheds,
// handoffs, and the report are bit-identical to the same traffic with the
// stamps stripped, also through the fault storm.
func TestPrefixDisabledEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			compareTraces(t, "hashed", runPrefixPin(seed, false, nil), runPrefixPin(seed, true, nil))
			compareTraces(t, "hashed storm", runPrefixPin(seed, false, chunkStorm(seed)), runPrefixPin(seed, true, chunkStorm(seed)))
		})
	}
}

// TestPrefixCacheConservation is the exactly-once law under the full reuse
// hierarchy: caching + offload + affinity routing + crash-and-recover
// faults, across the chaos seed sweep. Every request terminates exactly
// once in {completed, shed}, while the cache demonstrably cycles through
// hits, evictions, and crash drops.
func TestPrefixCacheConservation(t *testing.T) {
	const n = 300
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sch := faults.Script{
				{At: 0.5, Kind: faults.Crash, Pool: 0, Replica: 0, Duration: 1.5},
				{At: 1.5, Kind: faults.Crash, Pool: 0, Replica: 2, Duration: 1},
			}
			sch = append(sch, faults.Generate(rng.New(seed), 0, 3, 4, 1, 8)...)
			c := MustNewCluster(ClusterConfig{
				Pools: []Config{{
					Replicas:       cachedReplicas(3, 8_000, -1, seed),
					Policy:         FutureHeadroom,
					AffinityWeight: 0.3,
				}},
				Admission: &AdmissionConfig{TTFTBudget: 5, Shed: true},
				Faults:    &FaultConfig{Schedule: sch, Recover: true},
			})
			results := c.Serve(sessionReqs(n, 60, seed), 1e9)
			finished := map[int64]bool{}
			hits, evicted, dropped := int64(0), int64(0), int64(0)
			for _, res := range results {
				for _, r := range res.Finished {
					if finished[r.ID] {
						t.Fatalf("request %d finished twice", r.ID)
					}
					finished[r.ID] = true
				}
				if len(res.Failed) != 0 || len(res.TimedOut) != 0 {
					t.Fatalf("recovery run saw failures (%d) or timeouts (%d)", len(res.Failed), len(res.TimedOut))
				}
				hits += res.CacheHitTokens
				evicted += res.PrefixCache.EvictedBlocks
				dropped += res.PrefixCache.DroppedBlocks
			}
			shed := map[int64]bool{}
			for _, r := range c.ShedRequests() {
				if shed[r.ID] || finished[r.ID] {
					t.Fatalf("request %d terminated twice", r.ID)
				}
				shed[r.ID] = true
			}
			if got := len(finished) + len(shed); got != n {
				t.Fatalf("%d finished + %d shed = %d, want %d", len(finished), len(shed), got, n)
			}
			if lost := c.LostRequests(); len(lost) != 0 {
				t.Fatalf("lost %d requests", len(lost))
			}
			if c.HeldRequests() != 0 {
				t.Fatalf("%d requests still held", c.HeldRequests())
			}
			if hits == 0 {
				t.Fatal("conservation run exercised no cache hits")
			}
			if evicted == 0 {
				t.Fatal("tight pools evicted nothing")
			}
			if dropped == 0 {
				t.Fatal("crashes dropped no cache blocks")
			}
		})
	}
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
		results := c.Serve(sessionReqs(300, 60, seed), 1e9)
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
