package cluster

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// lagEngines builds n engines on one perf model for the lagged-bound
// property test, each with 300 ShareGPT output lengths of its own in its
// history window, clipped at maxNew: a small maxNew leaves the window's
// 0.9-quantile on the cap whatever a request has generated.
func lagEngines(n int, seed uint64, pm *perf.Model, cfg engine.Config, maxNew int, sched func(i int) core.Scheduler) []*engine.Engine {
	out := make([]*engine.Engine, n)
	for i := range out {
		r := rng.New(seed*100 + uint64(i))
		hist := make([]int, 300)
		for k := range hist {
			_, hist[k] = workload.ShareGPT.Sample(r)
			hist[k] = min(hist[k], maxNew)
		}
		c := cfg
		c.Perf, c.Scheduler, c.SeedHistory = pm, sched(i), hist
		out[i] = engine.MustNew(c)
	}
	return out
}

func pastFutureSched(seed uint64, deterministic bool) func(int) core.Scheduler {
	return func(i int) core.Scheduler {
		return core.MustNewPastFuture(core.PastFutureConfig{
			Reserved: 0.05, Rng: rng.New(seed + uint64(i)), Deterministic: deterministic,
		})
	}
}

// lagScenario is one small fleet of the property test.
type lagScenario struct {
	name   string
	maxNew int     // output cap of the stream and of the seeded windows
	rate   float64 // Poisson arrivals per second
	// saturated: every conditional quantile is the maxNew cap, so a bound
	// over an empty waiting set must equal the exact probe.
	saturated bool
	build     func(seed uint64, maxNew int) *Cluster
	// exercised fails the scenario if the run never met what it is there for.
	exercised func(t *testing.T, c *Cluster, results []*engine.Result)
}

var lagScenarios = []lagScenario{
	{
		name: "sampling-unsaturated-block1", maxNew: 1024, rate: 25,
		build: func(seed uint64, maxNew int) *Cluster {
			return MustNewCluster(ClusterConfig{Pools: []Config{{
				Replicas: lagEngines(4, seed, testPerf(), engine.Config{CapacityOverride: 9_000}, maxNew, pastFutureSched(seed, false)),
				Policy:   FutureHeadroom,
			}}})
		},
	},
	{
		name: "deterministic-saturated-block16", maxNew: 48, rate: 90, saturated: true,
		build: func(seed uint64, maxNew int) *Cluster {
			return MustNewCluster(ClusterConfig{Pools: []Config{{
				Replicas: lagEngines(4, seed, testPerf(), engine.Config{CapacityOverride: 4_000, BlockSize: 16}, maxNew, pastFutureSched(seed, true)),
				Policy:   FutureHeadroom,
			}}})
		},
	},
	{
		// Current-usage admission on a small pool: the batch runs into the
		// memory edge and evicts, block-granular.
		name: "aggressive-evictions-block16", maxNew: 1024, rate: 30,
		build: func(seed uint64, maxNew int) *Cluster {
			return MustNewCluster(ClusterConfig{Pools: []Config{{
				Replicas: lagEngines(3, seed, testPerf(), engine.Config{CapacityOverride: 5_000, BlockSize: 16}, maxNew,
					func(int) core.Scheduler { return core.MustNewAggressive(0.98) }),
				Policy: FutureHeadroom,
			}}})
		},
		exercised: func(t *testing.T, _ *Cluster, results []*engine.Result) {
			n := 0
			for _, res := range results {
				n += res.Evictions
			}
			if n == 0 {
				t.Fatal("no eviction: the run never reached the memory edge")
			}
		},
	},
	{
		name: "chunked-prefill", maxNew: 1024, rate: 20,
		build: func(seed uint64, maxNew int) *Cluster {
			return MustNewCluster(ClusterConfig{Pools: []Config{{
				Replicas: lagEngines(3, seed, testPerf(), engine.Config{
					CapacityOverride: 9_000, MaxPrefillTokens: 256,
					Chunked: engine.ChunkConfig{Enabled: true, ChunkTokens: 128},
				}, maxNew, pastFutureSched(seed, false)),
				Policy: FutureHeadroom,
			}}})
		},
		exercised: func(t *testing.T, _ *Cluster, results []*engine.Result) {
			chunks := int64(0)
			for _, res := range results {
				chunks += res.PrefillChunks
			}
			if chunks == 0 {
				t.Fatal("no prompt was chunked")
			}
		},
	},
	{
		name: "crashes", maxNew: 1024, rate: 25,
		build: func(seed uint64, maxNew int) *Cluster {
			return MustNewCluster(ClusterConfig{
				Pools: []Config{{
					Replicas: lagEngines(4, seed, testPerf(), engine.Config{CapacityOverride: 9_000}, maxNew, pastFutureSched(seed, false)),
					Policy:   FutureHeadroom,
				}},
				Faults: &FaultConfig{Schedule: faults.Generate(rng.New(seed), 0, 4, 3, 0.5, 8), Recover: true},
			})
		},
		exercised: func(t *testing.T, c *Cluster, _ []*engine.Result) {
			if c.flt.crashes == 0 || c.flt.orphaned == 0 {
				t.Fatalf("%d crashes evacuated %d requests", c.flt.crashes, c.flt.orphaned)
			}
		},
	},
	{
		// Two pools, mixed decode hardware, a per-destination link and the
		// admission gate: bestProbe at a finite gate on both pools, and the
		// (fits, delivery, score) decode pick over unequal speeds.
		name: "disaggregated-admission-hetero", maxNew: 1024, rate: 30,
		build: func(seed uint64, maxNew int) *Cluster {
			dcfg := engine.Config{CapacityOverride: 7_000, Role: engine.RoleDecodeOnly}
			decode := append(
				lagEngines(3, seed, testPerf(), dcfg, maxNew, pastFutureSched(seed, false)),
				lagEngines(2, seed+7, perfFor(hw.H800), dcfg, maxNew, pastFutureSched(seed+7, false))...)
			decode[1], decode[3] = decode[3], decode[1] // interleave the flavors in index order
			link := kv.MustNewLink(20e9, 0.002)
			link.PerDestination = true
			return MustNewCluster(ClusterConfig{
				Pools: []Config{
					{Role: engine.RolePrefillOnly, Policy: FutureHeadroom,
						Replicas: lagEngines(2, seed+3, testPerf(), engine.Config{CapacityOverride: 12_000, Role: engine.RolePrefillOnly}, maxNew,
							func(int) core.Scheduler { return core.MustNewAggressive(0.95) })},
					{Role: engine.RoleDecodeOnly, Policy: FutureHeadroom, Replicas: decode},
				},
				Link:      link,
				Admission: &AdmissionConfig{TTFTBudget: 6, Shed: true, Slack: 0.5, DecodeMaxProbe: 0.9},
			})
		},
		exercised: func(t *testing.T, c *Cluster, _ []*engine.Result) {
			if c.adm.seq == 0 {
				t.Fatal("the admission gate never held an arrival")
			}
		},
	},
}

// lagCandidates are the requests every check prices: a short and a long new
// arrival, and one re-routed mid-output, whose entry conditions on its own
// length through the live sampler.
func lagCandidates(maxNew int) []*request.Request {
	short := request.New(1_000_000, 120, maxNew/2, maxNew, 0)
	long := request.New(1_000_001, 1_800, maxNew/2, maxNew, 0)
	orphan := request.New(1_000_002, 600, maxNew-1, maxNew, 0)
	for k := 0; k < maxNew/3; k++ {
		orphan.EmitToken(0)
	}
	return []*request.Request{short, long, orphan}
}

// brutePickDecode is pickDecode as a plain sweep over the reference probes.
func brutePickDecode(c *Cluster, now float64, bytes int64, dp *Pool, ref []float64) (*replica, float64) {
	var best *replica
	bestFits, bestDeliver, bestScore := false, math.Inf(1), math.Inf(1)
	for _, rep := range dp.accepting {
		frac := ref[rep.idx]
		fits, score, deliver := frac <= 1, frac/rep.flv.relSpeed, c.expectedDelivery(now, bytes, rep.idx)
		better := false
		switch {
		case best == nil:
			better = true
		case fits != bestFits:
			better = fits
		case deliver != bestDeliver:
			better = deliver < bestDeliver
		default:
			better = betterFit(fits, score, bestFits, bestScore)
		}
		if better {
			best, bestFits, bestDeliver, bestScore = rep, fits, deliver, score
		}
	}
	return best, bestDeliver
}

// lagTally counts what a scenario's checks met, so that a run which never
// lagged, never pruned or never compared a tight bound fails instead of
// passing on nothing.
type lagTally struct {
	lagged, loose, tightSaturated, waitingLagged, kept int
}

// checkLaggedBound runs between two events. Every accepting replica's warm
// estimator — read through a copy, so the check rebuilds nothing the run
// would not — must bound each candidate's reference probe from below,
// exactly when it does not lag, and exactly too when nothing is static and
// the quantiles are saturated. Then every decision function must return what
// a plain sweep over the reference probes returns, replica and fraction;
// those do rebuild what they cannot rule out, as an arrival here would.
func checkLaggedBound(t *testing.T, c *Cluster, sc lagScenario, now float64, cands []*request.Request, tally *lagTally) {
	t.Helper()
	const bytes = 64 << 20 // a decode pick's transfer: large enough to queue on a lane
	for _, p := range c.pools {
		for _, cand := range cands {
			ref := naiveProbes(p, cand)
			for _, rep := range p.accepting {
				warm := *rep
				bound, exact := p.probeBound(&warm, cand)
				tight := exact || (sc.saturated && warm.static == 0)
				if bound > ref[rep.idx] || (tight && bound != ref[rep.idx]) {
					t.Fatalf("t=%.4f pool %d replica %d, candidate %d tokens in: bound %v (lag %d, %d static, %d waiting), reference %v",
						now, p.id, rep.idx, cand.Generated, bound, warm.lag, warm.static, rep.eng.WaitingLen(), ref[rep.idx])
				}
				if warm.lag == 0 {
					continue
				}
				tally.lagged++
				if bound < ref[rep.idx] {
					tally.loose++
				}
				if tight {
					tally.tightSaturated++
				}
				if warm.static > 0 {
					tally.waitingLagged++
				}
			}
			if len(p.accepting) == 0 {
				continue // the fallback replica: no probe decides it
			}
			for _, gate := range []float64{math.Inf(1), 0.8, 0.35} {
				wantRep, wantMin := bruteBestProbe(p, cand, gate, ref)
				if gotRep, gotMin := p.bestProbe(cand, gate); gotRep != wantRep || gotMin != wantMin {
					t.Fatalf("t=%.4f pool %d bestProbe(gate %v), candidate %d tokens in: got (%v, %v), exact sweep (%v, %v)",
						now, p.id, gate, cand.Generated, repIdx(gotRep), gotMin, repIdx(wantRep), wantMin)
				}
			}
			if want, _ := bruteBestProbe(p, cand, math.Inf(1), ref); p.pick(cand) != want {
				t.Fatalf("t=%.4f pool %d pick, candidate %d tokens in: exact sweep picks %v", now, p.id, cand.Generated, repIdx(want))
			}
			if p.id == c.decode && c.Disaggregated() {
				wantRep, wantAt := brutePickDecode(c, now, bytes, p, ref)
				if gotRep, gotAt := c.pickDecode(now, cand, bytes, p); gotRep != wantRep || gotAt != wantAt {
					t.Fatalf("t=%.4f pickDecode, candidate %d tokens in: got (%v, %v), exact sweep (%v, %v)",
						now, cand.Generated, repIdx(gotRep), gotAt, repIdx(wantRep), wantAt)
				}
			}
		}
		for _, rep := range p.accepting {
			if rep.estValid && rep.lag > 0 {
				tally.kept++ // no decision above had to rebuild it
			}
		}
	}
}

func repIdx(rep *replica) int {
	if rep == nil {
		return -1
	}
	return rep.idx
}

// serveChecked is the sequential ServeStream loop with check called after
// every event and every arrival it handles.
func serveChecked(c *Cluster, reqs []*request.Request, check func(now float64)) []*engine.Result {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].ArrivalTime < reqs[j].ArrivalTime })
	c.start(reqs[0].ArrivalTime)
	drain := func(t float64) {
		for c.events.Len() > 0 {
			top := c.events.Top()
			if top.at > t || (top.at == t && top.kind != evActivate) {
				return
			}
			c.popped++
			ev := c.events.Pop()
			c.handle(ev)
			check(ev.at)
		}
	}
	for _, r := range reqs {
		drain(r.ArrivalTime)
		c.handleArrival(r.ArrivalTime, r)
		check(r.ArrivalTime)
	}
	drain(1e9)
	c.finish(1e9)
	return c.results()
}

// TestLaggedBoundIsSound is the property the routing probes' lag rests on,
// over small fleets that between them cover sampling and deterministic
// admission, saturated and unsaturated quantiles, token- and block-granular
// KV, non-empty waiting sets, placements between steps, evictions at the
// memory edge, chunked prefill, crashes, a gated second pool and mixed
// hardware: see checkLaggedBound. Seeds follow CHAOS_SEEDS (make chaos).
func TestLaggedBoundIsSound(t *testing.T) {
	for _, sc := range lagScenarios {
		for _, seed := range chaosSeeds(t) {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				c := sc.build(seed, sc.maxNew)
				r := rng.New(seed + 50)
				reqs := workload.Build(workload.ShareGPT, r, 110, 1, sc.maxNew)
				workload.AssignPoissonArrivals(reqs, r, sc.rate, 0)
				cands := lagCandidates(sc.maxNew)
				var tally lagTally
				results := serveChecked(c, reqs, func(now float64) {
					checkLaggedBound(t, c, sc, now, cands, &tally)
				})
				done := 0
				for _, res := range results {
					done += len(res.Finished) + len(res.Failed) + len(res.TimedOut)
				}
				if done+len(c.ShedRequests()) != len(reqs) {
					t.Fatalf("%d of %d requests ended", done+len(c.ShedRequests()), len(reqs))
				}
				if tally.lagged == 0 || tally.kept == 0 || tally.waitingLagged == 0 {
					t.Fatalf("%+v: the run never probed a lagging estimator, never ruled one out, or never had one with a waiting set", tally)
				}
				if sc.saturated && tally.tightSaturated == 0 {
					t.Fatalf("%+v: no lagging estimator was ever required to be exact", tally)
				}
				if !sc.saturated && tally.loose == 0 {
					t.Fatalf("%+v: every bound was exact; the run never moved a quantile or aged a waiting entry", tally)
				}
				if sc.exercised != nil {
					sc.exercised(t, c, results)
				}
			})
		}
	}
}

// TestLaggedTieKeepsIndexOrder pins the one place a lower bound can tie: three
// replicas in lockstep on identical batches, cold windows (every prediction
// on the cap, so the bound is the exact value), the middle one rebuilt and
// its neighbours lagging. The pick is the exact sweep's — the lowest index,
// which had to be rebuilt to prove it — and the higher index, which ties from
// behind and cannot win, is ruled out on its bound alone.
func TestLaggedTieKeepsIndexOrder(t *testing.T) {
	f := mono(Config{Replicas: replicas(3, 20_000), Policy: FutureHeadroom}).pools[0]
	stepAll := func() {
		for _, rep := range f.reps {
			rep.eng.Step()
			rep.moved(rep.eng.LastStep())
		}
	}
	for i, rep := range f.reps {
		for k := 0; k < 5; k++ {
			rep.eng.Submit(request.New(int64(10*i+k), 100+10*k, 400, 512, 0))
		}
	}
	cand := request.New(99, 300, 100, 512, 0)
	stepAll() // the prefill iteration
	f.pick(cand)
	for k := 0; k < 3; k++ {
		stepAll()
	}
	f.probe(f.reps[1], cand)
	for i, lag := range []int{3, 0, 3} {
		if rep := f.reps[i]; !rep.estValid || rep.lag != lag {
			t.Fatalf("replica %d: valid %v, lag %d; want lag %d after three decode steps", i, rep.estValid, rep.lag, lag)
		}
	}
	if got := f.pick(cand); got != f.reps[0] {
		t.Fatalf("three-way tie picked replica %d, the exact sweep picks 0", got.idx)
	}
	if f.reps[0].lag != 0 || f.reps[2].lag != 3 {
		t.Fatalf("lags %d and %d after the pick: the winner must be exact, the tie from a higher index ruled out unrebuilt",
			f.reps[0].lag, f.reps[2].lag)
	}
}
