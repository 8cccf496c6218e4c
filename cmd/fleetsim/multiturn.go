package main

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// The -multiturn scenario: multi-turn chat traffic (shared system prompts,
// growing per-turn histories) served by a caching fleet, swept across the
// prefix-share axis — the probability a session continues past each turn.
// Each share point runs under cache-affinity routing; with -compare it also
// runs cache-blind (AffinityWeight 0) on the identical workload and fleet,
// so the pair isolates what routing alone is worth: the same blocks are
// cached either way, but blind routing scatters a session's turns across
// replicas that never saw its history.

// parseShares parses the -shares sweep list ("0,0.25,0.5,0.75").
func parseShares(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v < 0 || v >= 1 {
			fatal(fmt.Errorf("bad -shares entry %q (want comma-separated values in [0,1))", part))
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fatal(fmt.Errorf("-shares is empty"))
	}
	return out
}

// multiturnModes expands the share sweep into mode names. With compare the
// cache-blind arm runs first at each point, so the affinity row's savings
// are measured against a baseline that already exists.
func multiturnModes(shares []float64, compare bool) []string {
	var modes []string
	for _, s := range shares {
		if compare {
			modes = append(modes, fmt.Sprintf("multiturn-%.2f-blind", s))
		}
		modes = append(modes, fmt.Sprintf("multiturn-%.2f-affinity", s))
	}
	return modes
}

// sessionTraffic synthesizes the multi-turn arrival list for one share
// point: ShareGPT turn lengths, a 256-token system prompt shared by 70% of
// sessions, histories capped at 3000 tokens, Poisson arrivals at -mt-rate.
func sessionTraffic(opts options, share float64) []*request.Request {
	gen, err := workload.NewSessions(workload.SessionsConfig{
		Base:               workload.ShareGPT,
		BlockTokens:        64,
		SystemPromptTokens: 256,
		SharedSystemRatio:  0.7,
		TurnProb:           share,
		MaxTurns:           8,
		Cooldown:           2,
		MaxInputTokens:     3000,
	})
	if err != nil {
		fatal(err)
	}
	r := rng.New(opts.seed + 2000)
	n := int(opts.mtRate * opts.mtDur)
	reqs := workload.Build(gen, r, n, 1, 512)
	workload.AssignPoissonArrivals(reqs, r, opts.mtRate, 0)
	return reqs
}

// buildMultiturnFleet assembles the caching fleet both arms share: Past-
// Future replicas with the prefix cache on and an unbounded host offload
// tier (evictions spill, later turns restore at wire cost). The fleet is
// fixed-size — the acceptance axis is equal provisioned capacity, so the
// autoscaler must not paper over blind routing's extra prefill by scaling
// out. weight is the only difference between the arms.
func buildMultiturnFleet(opts options, weight float64) *cluster.Cluster {
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	engines := make([]*engine.Engine, opts.replicas)
	for i := range engines {
		engines[i] = engine.MustNew(engine.Config{
			Perf: pm,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(opts.seed + uint64(i)),
			}),
			CapacityOverride: opts.mtCap,
			PrefixCache: engine.PrefixCacheConfig{
				Enabled: true, BlockTokens: 64, OffloadCapacityTokens: -1,
			},
		})
	}
	return newFleet(cluster.Config{Replicas: engines, Policy: opts.policy, AffinityWeight: weight}, opts.rec)
}

// runMultiturnOne serves one (share, arm) point and rolls the cache
// counters into the row alongside the standard SLA/cost fields.
func runMultiturnOne(opts options) row {
	var share float64
	var arm string
	if _, err := fmt.Sscanf(opts.scaler, "multiturn-%f-%s", &share, &arm); err != nil {
		fatal(fmt.Errorf("bad multiturn mode %q: %v", opts.scaler, err))
	}
	weight := 0.0
	if arm == "affinity" {
		weight = opts.affinityW
	}
	reqs := sessionTraffic(opts, share)
	f := buildMultiturnFleet(opts, weight)
	results := f.Serve(reqs, 1e9)
	rep := f.Report(results, opts.sla)
	var hits, restored, prefill, input int64
	for _, res := range results {
		hits += res.CacheHitTokens
		restored += res.CacheRestoredTokens
		prefill += res.PrefillComputeTokens
		input += res.InputTokens
	}
	r := row{
		Mode:           opts.scaler,
		Policy:         opts.policy.String(),
		Finished:       rep.Finished,
		TTFTAttainment: attainment(rep.Summary.Total, rep.Summary.ViolatedTTFT),
		SLAAttainment:  rep.Summary.SLARate(),
		MeanTTFT:       rep.Summary.MeanTTFT,
		P99TTFT:        rep.Summary.P99TTFT,
		Goodput:        rep.Summary.Goodput,
		GoodputReq:     rep.Summary.GoodCompletionRate(),
		ReplicaSeconds: rep.ReplicaSeconds,
		CostSeconds:    rep.CostSeconds,
		CostPerGood:    rep.Summary.CostPerGoodCompletion(),
		ScaleOuts:      rep.ScaleOuts,
		ScaleIns:       rep.ScaleIns,
		Duration:       rep.Duration,
		PrefixShare:    share,
		CacheHitTokens: hits,
		RestoredTokens: restored,
		PrefillTokens:  prefill,
		InputTokens:    input,
	}
	if input > 0 {
		r.CacheHitRate = float64(hits+restored) / float64(input)
	}
	return r
}

// fillPrefillSavings annotates each affinity row with its prefill-token
// savings relative to the cache-blind arm at the same share point — the
// acceptance axis of the sweep. No-op for rows without a paired baseline.
func fillPrefillSavings(rows []row) {
	blind := map[float64]int64{}
	for _, r := range rows {
		if strings.HasSuffix(r.Mode, "-blind") {
			blind[r.PrefixShare] = r.PrefillTokens
		}
	}
	for i := range rows {
		r := &rows[i]
		if !strings.HasSuffix(r.Mode, "-affinity") {
			continue
		}
		if base, ok := blind[r.PrefixShare]; ok && base > 0 {
			r.PrefillSavings = 1 - float64(r.PrefillTokens)/float64(base)
		}
	}
}

// printMultiturn renders the share sweep as hit-rate / TTFT / provisioning
// curves under the standard table.
func printMultiturn(rows []row) {
	header := false
	for _, r := range rows {
		if !strings.HasPrefix(r.Mode, "multiturn-") {
			continue
		}
		if !header {
			fmt.Printf("%-24s %8s %9s %9s %12s %14s %12s\n",
				"multiturn", "hit-rate", "p99TTFT", "sla-att", "replica-sec", "prefill-tok", "vs-blind")
			header = true
		}
		savings := ""
		if r.PrefillSavings != 0 {
			savings = fmt.Sprintf("%+.1f%%", -r.PrefillSavings*100)
		}
		fmt.Printf("%-24s %7.1f%% %8.2fs %8.1f%% %12.0f %14d %12s\n",
			r.Mode, r.CacheHitRate*100, r.P99TTFT, r.SLAAttainment*100,
			r.ReplicaSeconds, r.PrefillTokens, savings)
	}
}
