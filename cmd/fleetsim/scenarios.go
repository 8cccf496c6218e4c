package main

import (
	"fmt"
	"strings"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/stats"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// Every fleet is Llama2-7B replicas on one A100-80G each (hetero adds
// RTX-4090s), routed by FutureHeadroom probes; planners forecast with Holt's
// linear trend.
const (
	replicas = 6      // fleet size, the autoscalers' upper bound
	capacity = 10_000 // KV capacity per replica, tokens
	policy   = cluster.FutureHeadroom

	interval       = 10.0 // autoscaler evaluation interval, s
	delay          = 5.0  // replica activation delay, s
	headroom       = 0.8  // planner utilization target
	decodeHeadroom = 0.7  // decode pool target: the MTPOT correction loop lets it run tighter
	highWater      = 0.85 // reactive scale-out load fraction
	lowWater       = 0.35 // reactive scale-in load fraction

	// The bursty ramp: calm, a linear ramp in 10 s steps, burst, calm.
	rate     = 3.0  // calm arrival rate, req/s
	burst    = 22.0 // burst arrival rate, req/s
	phaseSec = 90.0 // seconds per phase

	linkGBps    = 64.0  // KV-transfer link bandwidth, GB/s
	linkLatency = 0.002 // KV-transfer link latency, s

	overloadX     = 2.0          // the overload ramp peaks at overloadX × burst
	slack         = 1.5          // admission reserve for engine-side waits the floor cannot see, s
	faultReplicas = 2 * replicas // the storm's N+1 spares need room above the burst fleet

	// multiturn
	sessionRate     = 10.0   // session-turn arrival rate, req/s
	sessionDuration = 240.0  // workload span, s
	cacheCapacity   = 40_000 // KV per replica: room for resident prefixes on top of in-flight work
	affinityWeight  = 0.5    // the affinity arm's routing weight

	// longctx
	blendRate     = 4.0     // blended arrival rate, req/s
	blendDuration = 240.0   // workload span, s
	bigKV         = 131_072 // KV per replica: a 64k prompt must fit beside in-flight chat work
	chunkTokens   = 512     // greedy's fixed chunk; slo's default when no deadline presses
	longTTFT      = 20.0    // the long-document class's TTFT budget, s (chat keeps the SLA's)

	obsInterval = 10.0 // observability rollup interval, s
)

var sla = metrics.SLA{TTFT: 8, MTPOT: 1.5}

var rampScenario = scenario{
	name:  "ramp",
	about: "reactive vs predictive (Holt) autoscaling vs disaggregated prefill/decode pools on the bursty ramp",
	arms: []arm{
		{mode: "reactive", traffic: ramp(burst), fleet: reactiveFleet},
		{mode: "predictive-holt", traffic: ramp(burst), fleet: predictiveFleet, plan: true},
		{mode: "disaggregated-holt", traffic: ramp(burst), fleet: disagg{replicas: replicas}.build, plan: true},
	},
	wins: func(rows []row) []claim {
		re, p, d := rows[0], rows[1], rows[2]
		return []claim{
			{fmt.Sprintf("predictive-holt p99 TTFT %.2fs ≤ %.0fs on %.0f replica-sec < reactive's %.0f",
				p.P99TTFT, sla.TTFT, p.ReplicaSeconds, re.ReplicaSeconds),
				p.P99TTFT <= sla.TTFT && p.ReplicaSeconds < re.ReplicaSeconds},
			{fmt.Sprintf("disaggregated-holt p99 TTFT %.2fs < predictive-holt's %.2fs", d.P99TTFT, p.P99TTFT),
				d.P99TTFT < p.P99TTFT},
		}
	},
}

// The overload and faults trios price wire queueing per destination, so the
// only delta between their arms is the admission or recovery pipeline.
var (
	holding  = &cluster.AdmissionConfig{TTFTBudget: sla.TTFT, Slack: slack}
	shedding = &cluster.AdmissionConfig{TTFTBudget: sla.TTFT, Shed: true, Slack: slack, DecodeMaxProbe: 0.9}
)

var overloadScenario = scenario{
	name:  "overload",
	about: "the ramp at 2× its burst rate, disaggregated: route-on-arrival vs admission hold vs deadline-aware shedding",
	arms: []arm{
		{mode: "overload-noshed", traffic: ramp(burst * overloadX), fleet: disagg{replicas: replicas, perDest: true}.build, fill: shedFields},
		{mode: "overload-admit", traffic: ramp(burst * overloadX), fleet: disagg{replicas: replicas, perDest: true, admission: holding}.build, fill: shedFields},
		{mode: "overload-shed", traffic: ramp(burst * overloadX), fleet: disagg{replicas: replicas, perDest: true, admission: shedding}.build, fill: shedFields},
	},
	wins: func(rows []row) []claim {
		no, hold, shed := rows[0], rows[1], rows[2]
		return []claim{{fmt.Sprintf("overload-shed p99 TTFT %.2fs ≤ %.0fs at %.2f SLA-met req/s > noshed's %.2f and admit's %.2f",
			shed.P99TTFT, sla.TTFT, shed.GoodputReq, no.GoodputReq, hold.GoodputReq),
			shed.P99TTFT <= sla.TTFT && shed.GoodputReq > no.GoodputReq && shed.GoodputReq > hold.GoodputReq}}
	},
}

var heteroScenario = scenario{
	name:  "hetero",
	about: "a mixed A100 + RTX-4090 fleet under the cost-aware planner vs the ramp on A100s alone",
	arms: []arm{
		{mode: "hetero-cost", traffic: ramp(burst), fleet: mixedFleet, fill: flavorMix, plan: true},
		// The premium baseline is ramp's predictive arm, seeds and all.
		{mode: "hetero-premium", traffic: ramp(burst), fleet: predictiveFleet, fill: flavorMix},
	},
	wins: func(rows []row) []claim {
		cost, premium := rows[0], rows[1]
		return []claim{{fmt.Sprintf("hetero-cost %.0f cost-sec < hetero-premium's %.0f", cost.CostSeconds, premium.CostSeconds),
			cost.CostSeconds < premium.CostSeconds}}
	},
}

// The crash storm, in the burst phase: two decode replicas and then the
// prefill replica crash, six KV deliveries die on the wire, and a surviving
// decode replica runs 1.6× slow. Link failures are drawn from the run seed.
var (
	storm = faults.Script{
		{At: 2*phaseSec + 5, Kind: faults.Crash, Pool: 1, Replica: 0, Duration: 25},
		{At: 2*phaseSec + 10, Kind: faults.Crash, Pool: 1, Replica: 1, Duration: 25},
		{At: 2*phaseSec + 15, Kind: faults.Crash, Pool: 0, Replica: 0, Duration: 10},
		{At: 2*phaseSec + 20, Kind: faults.LinkFailure, Count: 6},
		{At: 2*phaseSec + 30, Kind: faults.Slowdown, Pool: 1, Replica: 2, Duration: 20, Factor: 1.6},
	}
	stormNoRecovery   = &cluster.FaultConfig{Schedule: storm, LinkFailRate: 0.02}
	stormWithRecovery = &cluster.FaultConfig{
		Schedule: storm, Recover: true,
		MaxTransferRetries: 3, RetryBackoff: 0.05, RetryBackoffCap: 0.4,
		LinkFailRate: 0.02,
	}
)

var faultsScenario = scenario{
	name:  "faults",
	about: "a mid-burst crash storm on the shedding disaggregated cluster: no faults vs no recovery vs recovery",
	arms: []arm{
		{mode: "faults-none", traffic: ramp(burst), fleet: disagg{replicas: faultReplicas, perDest: true, admission: shedding}.build, fill: faultFields},
		{mode: "faults-norecover", traffic: ramp(burst), fleet: disagg{replicas: faultReplicas, perDest: true, admission: shedding, faults: stormNoRecovery}.build, fill: faultFields},
		// N+1 decode redundancy is part of the recovery story.
		{mode: "faults-recover", traffic: ramp(burst), fleet: disagg{replicas: faultReplicas, perDest: true, admission: shedding, faults: stormWithRecovery, spare: 2}.build, fill: faultFields},
	},
	// Served p99 TTFT is level between recover and norecover (6.37 s against
	// 6.32 s at seed 1), so it is no condition.
	wins: func(rows []row) []claim {
		no, rec := rows[1], rows[2]
		return []claim{{fmt.Sprintf("faults-recover %.2f SLA-met req/s at %.1f%% attainment > norecover's %.2f at %.1f%%, %d lost",
			rec.GoodputReq, rec.SLAAttainment*100, no.GoodputReq, no.SLAAttainment*100, rec.Lost),
			rec.GoodputReq > no.GoodputReq && rec.SLAAttainment > no.SLAAttainment && rec.Lost == 0}}
	},
}

// ramp returns the bursty ShareGPT traffic peaking at peak req/s. Its load
// builds over several planner intervals, which separates trend-following
// predictors from reactive thresholds.
func ramp(peak float64) func(seed uint64) []*request.Request {
	return func(seed uint64) []*request.Request {
		r := rng.New(seed + 1000)
		phases := append([]workload.RatePhase{{Rate: rate, Duration: phaseSec}}, workload.Ramp(rate, peak, phaseSec, int(phaseSec/10))...)
		phases = append(phases, workload.RatePhase{Rate: peak, Duration: phaseSec}, workload.RatePhase{Rate: rate, Duration: phaseSec})
		reqs := workload.Build(workload.ShareGPT, r, workload.PhasedCount(phases), 1, 512)
		workload.AssignPhasedArrivals(reqs, r, phases, 0)
		return reqs
	}
}

func llama2(gpu hw.GPU) *perf.Model {
	return perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(gpu, 1)})
}

// pastFuture builds n Past-Future replicas from cfg (perf model, role,
// capacity, cache, chunking), the i-th scheduler seeded seed+i.
func pastFuture(n int, seed uint64, cfg engine.Config) []*engine.Engine {
	out := make([]*engine.Engine, n)
	for i := range out {
		cfg.Scheduler = core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(seed + uint64(i))})
		out[i] = engine.MustNew(cfg)
	}
	return out
}

// monolithic builds the cluster of one mixed-role pool with rec attached.
func monolithic(pool cluster.Config, rec obs.Recorder) *cluster.Cluster {
	pool.Policy = policy
	return cluster.MustNewCluster(cluster.ClusterConfig{Pools: []cluster.Config{pool}, Recorder: rec})
}

// planner sizes a pool of up to n replicas at utilization target.
func planner(n int, target float64) *cluster.PlannerConfig {
	return &cluster.PlannerConfig{
		SLA: sla, Min: 1, Max: n, Interval: interval, Predictor: cluster.HoltPredictor,
		ActivationDelay: delay, Headroom: target,
	}
}

func a100s(seed uint64) []*engine.Engine {
	return pastFuture(replicas, seed, engine.Config{Perf: llama2(hw.A100_80G), CapacityOverride: capacity})
}

// reactiveFleet scales on high/low-water load thresholds.
func reactiveFleet(seed uint64, rec obs.Recorder) *cluster.Cluster {
	return monolithic(cluster.Config{Replicas: a100s(seed), Scale: &cluster.AutoScale{
		Max: replicas, HighWater: highWater, LowWater: lowWater,
		ActivationDelay: delay, EvalInterval: interval,
	}}, rec)
}

// predictiveFleet scales on the SLA planner's forecast.
func predictiveFleet(seed uint64, rec obs.Recorder) *cluster.Cluster {
	return monolithic(cluster.Config{Replicas: a100s(seed), Planner: planner(replicas, headroom)}, rec)
}

// mixedFleet adds twice as many RTX-4090 replicas (seeded clear of the
// A100s and the traffic) under the cost-aware planner: the cheapest flavor
// that meets the SLA fills demand, slower flavors keeping the fastest's
// absolute slack.
func mixedFleet(seed uint64, rec obs.Recorder) *cluster.Cluster {
	engines := append(a100s(seed),
		pastFuture(2*replicas, seed+1_000_000, engine.Config{Perf: llama2(hw.RTX4090), CapacityOverride: capacity})...)
	plan := planner(len(engines), headroom)
	plan.SpeedAware = true
	return monolithic(cluster.Config{Replicas: engines, Planner: plan}, rec)
}

// disagg is one arm's disaggregated cluster: a prefill pool (a quarter of
// the replicas, at least one, admitting on current usage) and a Past-Future
// decode pool, each sized by its own planner, joined by a KV-transfer link.
type disagg struct {
	replicas  int
	perDest   bool                     // one ingress lane per decode replica, priced by the router
	admission *cluster.AdmissionConfig // the cluster-front pipeline, if any
	faults    *cluster.FaultConfig     // the storm, if any; seeded per run
	spare     int                      // decode replicas held spare (N+1)
}

func (d disagg) build(seed uint64, rec obs.Recorder) *cluster.Cluster {
	pm := llama2(hw.A100_80G)
	prefill := make([]*engine.Engine, max(d.replicas/4, 1))
	for i := range prefill {
		prefill[i] = engine.MustNew(engine.Config{
			Perf: pm, Scheduler: core.MustNewAggressive(0.95),
			Role: engine.RolePrefillOnly, CapacityOverride: capacity,
		})
	}
	decode := pastFuture(d.replicas-len(prefill), seed, engine.Config{Perf: pm, Role: engine.RoleDecodeOnly, CapacityOverride: capacity})
	link := kv.MustNewLink(linkGBps*1e9, linkLatency)
	link.PerDestination = d.perDest
	decodePlan := planner(len(decode), decodeHeadroom)
	decodePlan.Spare = d.spare
	var flt *cluster.FaultConfig
	if d.faults != nil {
		f := *d.faults
		f.Seed = seed
		flt = &f
	}
	return cluster.MustNewCluster(cluster.ClusterConfig{
		Pools: []cluster.Config{
			{Role: engine.RolePrefillOnly, Replicas: prefill, Policy: policy, Planner: planner(len(prefill), headroom)},
			{Role: engine.RoleDecodeOnly, Replicas: decode, Policy: policy, Planner: decodePlan},
		},
		Link: link, Admission: d.admission, Faults: flt, Recorder: rec,
	})
}

// shedFields reports what admission control did with the arrivals.
func shedFields(r *row, s served) {
	r.Arrivals = len(s.reqs)
	r.Shed, r.ShedFront, r.ShedBoundary = s.rep.Shed, s.rep.ShedFront, s.rep.ShedBoundary
	r.ShedRate = float64(s.rep.Shed) / float64(len(s.reqs))
}

// faultFields reports the admission outcome and what the storm broke.
func faultFields(r *row, s served) {
	shedFields(r, s)
	f := s.rep.Summary
	r.Crashes, r.Orphaned, r.Recovered, r.ReShed, r.Lost = f.Crashes, f.Orphaned, f.Recovered, f.ReShed, f.Lost
	r.TransferRetries, r.RePrefills, r.MTTR = f.TransferRetries, f.RePrefills, f.MeanTimeToRecover
}

// flavorMix names the fleet's flavors, e.g. "6×A100-80G + 12×RTX-4090".
func flavorMix(r *row, s served) {
	var parts []string
	for _, fi := range s.c.Pool(0).Flavors() {
		parts = append(parts, fmt.Sprintf("%d×%s", fi.Replicas, fi.Name))
	}
	r.Flavors = strings.Join(parts, " + ")
}

// The multiturn scenario: chat sessions on a caching fleet, swept across the
// prefix share (the chance a session continues past each turn). At each
// share, cache-blind and then cache-affinity routing serve the same traffic:
// the same blocks are cached either way, but blind routing scatters a
// session's turns over replicas that never saw its history.
var multiturnScenario = scenario{
	name:  "multiturn",
	about: "multi-turn sessions on a caching fleet across prefix shares: cache-blind vs cache-affinity routing",
	arms:  multiturnArms([]float64{0, 0.25, 0.5, 0.75}),
	wins: func(rows []row) []claim {
		var cs []claim
		for i := 0; i+1 < len(rows); i += 2 {
			blind, aff := rows[i], rows[i+1]
			if blind.PrefixShare == 0 {
				continue // no session continues: nothing for affinity to find
			}
			cs = append(cs, claim{fmt.Sprintf("%s (hit rate %.1f%%) computes %d prefill tokens (%+.1f%%) < blind's %d at p99 TTFT %.2fs ≤ %.2fs",
				aff.Mode, aff.CacheHitRate*100, aff.PrefillTokens, -aff.PrefillSavings*100, blind.PrefillTokens, aff.P99TTFT, blind.P99TTFT),
				aff.PrefillTokens < blind.PrefillTokens && aff.P99TTFT <= blind.P99TTFT})
		}
		return cs
	},
}

// multiturnArms pairs a cache-blind and a cache-affinity arm at each share,
// blind first, so the affinity row's savings are measured against a
// baseline that already exists.
func multiturnArms(shares []float64) []arm {
	var arms []arm
	for _, share := range shares {
		arms = append(arms,
			arm{mode: fmt.Sprintf("multiturn-%.2f-blind", share), traffic: sessions(share), fleet: cachingFleet(0), fill: cacheFields(share, false)},
			arm{mode: fmt.Sprintf("multiturn-%.2f-affinity", share), traffic: sessions(share), fleet: cachingFleet(affinityWeight), fill: cacheFields(share, true)})
	}
	return arms
}

// sessions returns one share point's traffic: ShareGPT turn lengths, a
// 256-token system prompt shared by 70% of sessions, histories capped at
// 3000 tokens, Poisson arrivals.
func sessions(share float64) func(seed uint64) []*request.Request {
	return func(seed uint64) []*request.Request {
		gen, err := workload.NewSessions(workload.SessionsConfig{
			Base: workload.ShareGPT, BlockTokens: 64, SystemPromptTokens: 256, SharedSystemRatio: 0.7,
			TurnProb: share, MaxTurns: 8, MaxInputTokens: 3000,
		})
		if err != nil {
			panic(err)
		}
		r := rng.New(seed + 2000)
		reqs := workload.Build(gen, r, int(sessionRate*sessionDuration), 1, 512)
		workload.AssignPoissonArrivals(reqs, r, sessionRate, 0)
		return reqs
	}
}

// cachingFleet has the prefix cache on with an unbounded host offload tier.
// It is fixed-size, so no autoscaler papers over blind routing's extra
// prefill; the routing weight is the arms' only difference.
func cachingFleet(weight float64) func(seed uint64, rec obs.Recorder) *cluster.Cluster {
	return func(seed uint64, rec obs.Recorder) *cluster.Cluster {
		engines := pastFuture(replicas, seed, engine.Config{
			Perf:             llama2(hw.A100_80G),
			CapacityOverride: cacheCapacity,
			PrefixCache:      engine.PrefixCacheConfig{Enabled: true, BlockTokens: 64, OffloadCapacityTokens: -1},
		})
		return monolithic(cluster.Config{Replicas: engines, AffinityWeight: weight}, rec)
	}
}

// cacheFields rolls the cache counters into the row; an affinity arm also
// reports its prefill savings against the blind arm just before it.
func cacheFields(share float64, affinity bool) func(r *row, s served) {
	return func(r *row, s served) {
		r.PrefixShare = share
		for _, res := range s.results {
			r.CacheHitTokens += res.CacheHitTokens
			r.RestoredTokens += res.CacheRestoredTokens
			r.PrefillTokens += res.PrefillComputeTokens
			r.InputTokens += res.InputTokens
		}
		if r.InputTokens > 0 {
			r.CacheHitRate = float64(r.CacheHitTokens+r.RestoredTokens) / float64(r.InputTokens)
		}
		if !affinity {
			return
		}
		if base := s.prev[len(s.prev)-1].PrefillTokens; base > 0 {
			r.PrefillSavings = 1 - float64(r.PrefillTokens)/float64(base)
		}
	}
}

// The longctx scenario: chat traffic blended with 32k+ document prompts,
// swept across the long-prompt share. At each share the same traffic is
// served unchunked (a fused long prefill stalls every running stream), with
// greedy fixed chunks, and with the SLO-aware sizer, which shrinks chunks only
// while a tighter deadline waits.
var longctxScenario = scenario{
	name:  "longctx",
	about: "chat blended with 32k+ prompts across long shares: unchunked vs greedy vs SLO-aware chunked prefill",
	arms:  longctxArms([]float64{0.02, 0.05, 0.10}),
	wins: func(rows []row) []claim {
		var cs []claim
		for i := 0; i+2 < len(rows); i += 3 {
			none, greedy, slo := rows[i], rows[i+1], rows[i+2]
			cs = append(cs, claim{fmt.Sprintf("%s attainment %.1f%% / short %.1f%% / long %.1f%% ≥ none's %.1f%% / %.1f%% / %.1f%% with %d chunks < greedy's %d (short p99 %.2fs)",
				slo.Mode, slo.SLAAttainment*100, slo.ShortAttainment*100, slo.LongAttainment*100,
				none.SLAAttainment*100, none.ShortAttainment*100, none.LongAttainment*100, slo.PrefillChunks, greedy.PrefillChunks, slo.ShortP99TTFT),
				slo.SLAAttainment >= none.SLAAttainment && slo.ShortAttainment >= none.ShortAttainment &&
					slo.LongAttainment >= none.LongAttainment && slo.PrefillChunks < greedy.PrefillChunks})
		}
		return cs
	},
}

// longctxArms runs the unchunked and greedy arms before the slo arm at each
// share, so the slo row is judged against baselines that already exist.
func longctxArms(shares []float64) []arm {
	policies := []struct {
		name  string
		chunk engine.ChunkConfig
	}{
		{"none", engine.ChunkConfig{}},
		{"greedy", engine.ChunkConfig{Enabled: true, Policy: engine.ChunkGreedyFixed, ChunkTokens: chunkTokens}},
		{"slo", engine.ChunkConfig{Enabled: true, Policy: engine.ChunkSLOAware, ChunkTokens: chunkTokens}},
	}
	var arms []arm
	for _, share := range shares {
		for _, p := range policies {
			arms = append(arms, arm{mode: fmt.Sprintf("longctx-%.2f-%s", share, p.name),
				traffic: blend(share), fleet: chunkedFleet(p.chunk), fill: classFields(share, p.name)})
		}
	}
	return arms
}

// blend returns one share point's traffic: the chat + long-document mixture
// with per-class TTFT deadlines stamped up front (the SLA budget for chat,
// longTTFT for documents) — the deadlines the SLO-aware chunk sizer
// schedules against.
func blend(share float64) func(seed uint64) []*request.Request {
	return func(seed uint64) []*request.Request {
		r := rng.New(seed + 3000)
		reqs := workload.Build(workload.LongCtxMix(share), r, int(blendRate*blendDuration), 1, 512)
		workload.AssignPoissonArrivals(reqs, r, blendRate, 0)
		for _, q := range reqs {
			budget := sla.TTFT
			if q.Class == workload.LongContext.Label {
				budget = longTTFT
			}
			q.TTFTDeadline = q.ArrivalTime + budget
		}
		return reqs
	}
}

// chunkedFleet is fixed-size, so no autoscaler papers over head-of-line
// blocking; the chunking configuration is the arms' only difference.
func chunkedFleet(chunk engine.ChunkConfig) func(seed uint64, rec obs.Recorder) *cluster.Cluster {
	return func(seed uint64, rec obs.Recorder) *cluster.Cluster {
		engines := pastFuture(replicas, seed, engine.Config{
			Perf:             llama2(hw.A100_80G),
			CapacityOverride: bigKV,
			MaxPrefillTokens: 4 * chunkTokens,
			Chunked:          chunk,
		})
		return monolithic(cluster.Config{Replicas: engines}, rec)
	}
}

// classFields splits the SLA axes by class: served p99 TTFT and attainment
// for the chat class, deadline attainment over all arrivals for the
// long-document class.
func classFields(share float64, chunkPolicy string) func(r *row, s served) {
	return func(r *row, s served) {
		r.LongShare, r.ChunkPolicy = share, chunkPolicy
		longArrived := 0
		for _, q := range s.reqs {
			if q.Class == workload.LongContext.Label {
				longArrived++
			}
		}
		var shortTTFTs []float64
		shortOK, longOK := 0, 0
		for _, res := range s.results {
			r.ChunkIters += res.ChunkIters
			r.PrefillChunks += res.PrefillChunks
			for _, q := range res.Finished {
				if q.Class == workload.LongContext.Label {
					r.LongServed++
					if t := q.TTFT(); t >= 0 && t <= longTTFT {
						longOK++
					}
					continue
				}
				r.ShortServed++
				if t := q.TTFT(); t >= 0 {
					shortTTFTs = append(shortTTFTs, t)
					if t <= sla.TTFT {
						shortOK++
					}
				}
			}
		}
		if len(shortTTFTs) > 0 {
			r.ShortP99TTFT = stats.Percentile(shortTTFTs, 0.99)
			r.ShortAttainment = float64(shortOK) / float64(r.ShortServed)
		}
		if longArrived > 0 {
			r.LongAttainment = float64(longOK) / float64(longArrived)
		}
	}
}

// The router scenario: the paper's §7 proposal, routing on the estimator the
// scheduler admits with. One size-skewed workload is served by a fixed fleet
// of Past-Future replicas under each routing policy, at a calm load, the
// knee and an overload. No deadline is set, so every request finishes.
const (
	routerReplicas = 3
	routerCapacity = 30_000 // KV per replica, tokens
	routerRequests = 600
)

var routerScenario = scenario{
	name:  "router",
	about: "the paper's §7 load-aware routing: round-robin vs least-loaded vs future-headroom at three loads",
	setup: fmt.Sprintf("%d×Llama2-7B (cap %d tok) per arm; %d size-skewed requests (in 100–4000, out 50–2000 tok), Poisson at 0.9, 1.3 and 1.8 req/s",
		routerReplicas, routerCapacity, routerRequests),
	arms: routerArms([]float64{0.9, 1.3, 1.8}),
	wins: func(rows []row) []claim {
		done, even := true, true
		for _, r := range rows {
			done = done && r.Finished == routerRequests
			if r.Policy == cluster.RoundRobin.String() {
				even = even && r.Imbalance == 0
			}
		}
		rr, fh := rows[3], rows[5] // the knee, 1.3 req/s
		return []claim{
			{fmt.Sprintf("every arm finishes all %d requests", routerRequests), done},
			{"round-robin routes evenly at every rate (imbalance 0)", even},
			{fmt.Sprintf("%s mean TTFT %.2fs ≤ %s's %.2fs", fh.Mode, fh.MeanTTFT, rr.Mode, rr.MeanTTFT),
				fh.MeanTTFT <= rr.MeanTTFT},
		}
	},
}

// routerArms serves every policy at each rate, rate by rate.
func routerArms(rates []float64) []arm {
	var arms []arm
	for _, rate := range rates {
		for _, pol := range []cluster.Policy{cluster.RoundRobin, cluster.LeastLoaded, cluster.FutureHeadroom} {
			arms = append(arms, arm{mode: fmt.Sprintf("router-%.1f-%s", rate, pol),
				traffic: skewed(rate), fleet: routedFleet(pol), fill: routeFields(pol, rate)})
		}
	}
	return arms
}

// skewed returns one rate's traffic: uniform prompt and output lengths over
// a wide range, so a blind router stacks long requests on one replica.
func skewed(rate float64) func(seed uint64) []*request.Request {
	return func(seed uint64) []*request.Request {
		r := rng.New(seed + 77)
		gen := workload.Uniform{Label: "skewed", InLo: 100, InHi: 4000, OutLo: 50, OutHi: 2000}
		reqs := workload.Build(gen, r, routerRequests, 1, 2048)
		workload.AssignPoissonArrivals(reqs, r, rate, 0)
		return reqs
	}
}

// routedFleet is fixed-size; the routing policy is the arms' only difference.
func routedFleet(pol cluster.Policy) func(seed uint64, rec obs.Recorder) *cluster.Cluster {
	return func(seed uint64, rec obs.Recorder) *cluster.Cluster {
		engines := pastFuture(routerReplicas, seed, engine.Config{Perf: llama2(hw.A100_80G), CapacityOverride: routerCapacity})
		return cluster.MustNewCluster(cluster.ClusterConfig{Pools: []cluster.Config{{Replicas: engines, Policy: pol}}, Recorder: rec})
	}
}

// routeFields names the arm's policy and load and how evenly it routed.
func routeFields(pol cluster.Policy, rate float64) func(r *row, s served) {
	return func(r *row, s served) {
		r.Policy, r.Rate, r.Imbalance = pol.String(), rate, s.c.Pool(0).Imbalance()
	}
}
