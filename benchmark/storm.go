package main

import (
	"time"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// Storm-product fleet shape and traffic. The rates were set by measurement:
// this fleet's knee sits near 35 req/s (at a constant 30 it sheds 0.6% with a
// median TTFT of 0.5 s, at 36 it sheds 2.5% at 2.3 s, at 42 it sheds 17% at
// 7.7 s), and the ramp's last phase runs 1.3× that, so admission holds and
// sheds carry load.
const (
	stormPrefill   = 12  // prefill-only A100-80G replicas
	stormDecodeA   = 10  // decode-only A100-80G replicas
	stormDecodeH   = 6   // decode-only H800 replicas: the mixed-GPU pool
	stormBlock     = 64  // prefix-cache block, tokens; the sessions hash at the same grain
	stormMaxNew    = 512 // output cap
	stormBaseRate  = 12.0
	stormPeakRate  = 45.0 // 1.3 × the knee
	stormRampSteps = 8
)

// stormProduct runs the product of features no test runs together:
// disaggregated prefill and decode pools joined by a bandwidth-limited
// kv.Link, a mixed A100/H800 decode pool, the Holt planner on both pools,
// cluster-front admission with shedding, a generated crash, link-failure and
// slowdown script with recovery, the prefix cache with a host tier and
// cache-affinity routing, and SLO-aware chunked prefill — fed, open loop, by
// multi-turn sessions (prefix share 0.5) blended with 10% long-context
// prompts on a ramp past capacity.
func stormProduct(cfg runConfig, tr *tracer) (*replay, error) {
	t0 := time.Now()
	n := scaled(65_000, cfg.scale, 600)
	a100pm := a100()
	h800pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.H800, 1)})

	prefill := make([]*engine.Engine, stormPrefill)
	for i := range prefill {
		eng, err := engine.New(engine.Config{
			Perf:             a100pm,
			Scheduler:        tr.wrap(core.MustNewAggressive(0.95)),
			Role:             engine.RolePrefillOnly,
			MaxPrefillTokens: 4096,
			QueueTimeout:     sla.TTFT,
			Chunked:          engine.ChunkConfig{Enabled: true, Policy: engine.ChunkSLOAware, ChunkTokens: 1024},
			PrefixCache:      engine.PrefixCacheConfig{Enabled: true, BlockTokens: stormBlock, OffloadCapacityTokens: 200_000},
		})
		if err != nil {
			return nil, err
		}
		prefill[i] = eng
	}
	decode := make([]*engine.Engine, stormDecodeA+stormDecodeH)
	for i := range decode {
		pm := a100pm
		if i >= stormDecodeA {
			pm = h800pm
		}
		eng, err := engine.New(engine.Config{
			Perf:      pm,
			Scheduler: pastFuture(cfg.seed+uint64(i), tr),
			Role:      engine.RoleDecodeOnly,
		})
		if err != nil {
			return nil, err
		}
		decode[i] = eng
	}

	stream, span := stormStream(cfg.seed, n)
	planner := func(max int, headroom float64, spare int) *cluster.PlannerConfig {
		return &cluster.PlannerConfig{
			SLA: sla, Min: max / 2, Max: max, Interval: 10,
			Predictor: cluster.HoltPredictor, ActivationDelay: 5,
			Headroom: headroom, SpeedAware: true, Spare: spare,
		}
	}
	link := kv.MustNewLink(10e9, 0.002)
	link.PerDestination = true
	clu, err := cluster.NewCluster(cluster.ClusterConfig{
		Pools: []cluster.Config{
			{Role: engine.RolePrefillOnly, Replicas: prefill, Policy: cluster.FutureHeadroom,
				Planner: planner(len(prefill), 0.8, 0), AffinityWeight: 0.5},
			{Role: engine.RoleDecodeOnly, Replicas: decode, Policy: cluster.FutureHeadroom,
				Planner: planner(len(decode), 0.7, 1)},
		},
		Link:      link,
		Admission: &cluster.AdmissionConfig{TTFTBudget: sla.TTFT, Shed: true, Slack: 1.5, DecodeMaxProbe: 0.9},
		Faults: &cluster.FaultConfig{
			Schedule:           stormFaults(span),
			Recover:            true,
			MaxTransferRetries: 3, RetryBackoff: 0.05, RetryBackoffCap: 0.4,
			LinkFailRate: 0.02, Seed: cfg.seed + 4000,
		},
		Recorder: tr.recorder(),
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.admission = true
	}
	rp := &replay{buildS: time.Since(t0).Seconds()}
	serveStream(rp, clu, stream, append(prefill, decode...), tr)
	return rp, nil
}

// blend draws the long-context share of requests from the document class,
// bare, and the rest from the multi-turn sessions — LongCtxMix(0.1) with its
// chat half replaced by sessions. A document carries no prefix hashes: with
// Sessions wrapped around the whole mix each 16k–64k prompt carried 250–1000
// block hashes, the admission floor matched all of them against every
// prefill replica each time a held document reached the head of the queue
// (cluster.bestCachedTokens: 50% of host time on seed 5, 25% on seed 10),
// and host time per request ranged 1.9× over twenty seeds.
type blend struct {
	sessions  *workload.Sessions
	long      workload.Generator
	longShare float64
}

// Name implements workload.Generator.
func (b *blend) Name() string { return "sessions+" + b.long.Name() }

// Sample implements workload.Generator.
func (b *blend) Sample(r *rng.RNG) (int, int) {
	sm := b.SampleSession(r)
	return sm.In, sm.Out
}

// SampleSession implements workload.SessionGenerator.
func (b *blend) SampleSession(r *rng.RNG) workload.SessionSample {
	if r.Bool(b.longShare) {
		in, out := b.long.Sample(r)
		return workload.SessionSample{In: in, Out: out, Class: b.long.Name()}
	}
	return b.sessions.SampleSession(r)
}

// stormStream builds the arrival stream: multi-turn ShareGPT sessions with a
// 256-token system prompt shared by 70% of them and a 0.5 chance of another
// turn, one request in ten a 16k–64k document, arriving on a calm phase, a
// ramp and a short peak. It returns the stream and the simulated span of its
// phases.
func stormStream(seed uint64, n int) (*workload.Stream, float64) {
	sessions, err := workload.NewSessions(workload.SessionsConfig{
		Base:               workload.ShareGPT,
		BlockTokens:        stormBlock,
		SystemPromptTokens: 256,
		SharedSystemRatio:  0.7,
		TurnProb:           0.5,
		MaxInputTokens:     3000,
	})
	if err != nil {
		panic(err) // a constant configuration
	}
	gen := &blend{sessions: sessions, long: workload.LongContext, longShare: 0.1}
	// A calm phase of two parts, a ramp of one and a peak of half a part,
	// the part's length solved so the phases expect n requests. Seven
	// requests in ten arrive below the knee, so the median TTFT reads the
	// healthy regime and the 99th percentile the overloaded one; with the
	// median request on the cliff between them it swung 3× from seed to seed.
	calm, ramp, peak := 2.0, 1.0, 0.5
	part := float64(n) / (calm*stormBaseRate + ramp*(stormBaseRate+stormPeakRate)/2 + peak*stormPeakRate)
	phases := []workload.RatePhase{{Rate: stormBaseRate, Duration: calm * part}}
	phases = append(phases, workload.Ramp(stormBaseRate, stormPeakRate, ramp*part, stormRampSteps)...)
	phases = append(phases, workload.RatePhase{Rate: stormPeakRate, Duration: peak * part})
	return workload.NewStream(workload.StreamConfig{
		Gen:      gen,
		Lengths:  rng.New(seed + 1000),
		Arrivals: rng.New(seed + 2000),
		Phases:   phases,
		N:        n,
		FirstID:  1,
		MaxNew:   stormMaxNew,
	}), (calm + ramp + peak) * part
}

// stormFaults draws the fault script over the stream's span: crashes on both
// pools from per-replica MTBF/MTTR processes, plus a burst of wire failures
// and a slowed decode replica in each third of the run. The storm is part of
// the scenario, not of the traffic: it is drawn from a fixed seed, so every
// run's seed meets the same crashes at the same points of the ramp.
func stormFaults(span float64) faults.Script {
	r := rng.New(0x5707)
	script := faults.Generate(r, 0, stormPrefill, 4*span, 20, span)
	script = append(script, faults.Generate(r, 1, stormDecodeA+stormDecodeH, 4*span, 25, span)...)
	for i := 0; i < 3; i++ {
		at := span * (float64(i) + 0.5) / 3
		script = append(script,
			faults.Fault{At: at, Kind: faults.LinkFailure, Count: 6},
			faults.Fault{At: at, Kind: faults.Slowdown, Pool: 1, Replica: r.Intn(stormDecodeA + stormDecodeH), Duration: 20, Factor: 1.6},
		)
	}
	return script
}
