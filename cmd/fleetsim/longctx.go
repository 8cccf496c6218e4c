package main

import (
	"fmt"
	"strings"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/stats"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// The -longctx scenario: interactive ShareGPT chat traffic blended with a
// long-context document class (32k+ prompts, short outputs), swept across
// the long-prompt share axis at fixed provisioned capacity. Each share
// point runs under SLO-aware chunked prefill; with -compare it also runs
// unchunked and greedy fixed-chunk on the identical workload and fleet, so
// the trio isolates what chunk *scheduling* is worth: unchunked fuses each
// 32k prompt into one multi-second iteration that blocks every queued chat
// request (head-of-line blocking), greedy chunking interleaves but sizes
// chunks blindly, and the SLO-aware sizer shrinks chunks only while a
// tighter-deadline request is actually waiting. The win condition is the
// slo arm holding the overall SLA attainment none loses (a fused long prefill
// stalls every running stream), short- and long-class TTFT attainment intact,
// with fewer chunks than greedy.

// longctxModes expands the long-share sweep into mode names. With compare
// the unchunked and greedy arms run first at each point, so the slo row is
// judged against baselines that already exist.
func longctxModes(shares []float64, compare bool) []string {
	var modes []string
	for _, s := range shares {
		if compare {
			modes = append(modes,
				fmt.Sprintf("longctx-%.2f-none", s),
				fmt.Sprintf("longctx-%.2f-greedy", s))
		}
		modes = append(modes, fmt.Sprintf("longctx-%.2f-slo", s))
	}
	return modes
}

// longctxChunk maps a sweep arm to its engine chunking configuration.
func longctxChunk(arm string, chunkTokens int) engine.ChunkConfig {
	switch arm {
	case "none":
		return engine.ChunkConfig{}
	case "greedy":
		return engine.ChunkConfig{Enabled: true, Policy: engine.ChunkGreedyFixed, ChunkTokens: chunkTokens}
	case "slo":
		return engine.ChunkConfig{Enabled: true, Policy: engine.ChunkSLOAware, ChunkTokens: chunkTokens}
	default:
		fatal(fmt.Errorf("unknown longctx arm %q (none, greedy, slo)", arm))
		return engine.ChunkConfig{}
	}
}

// longctxTraffic synthesizes one share point's arrival list: the blended
// chat + long-document mixture at -lc-rate, with per-class TTFT deadlines
// stamped up front (the SLA budget for chat, the looser -lc-long-ttft for
// documents) — the deadlines the SLO-aware chunk sizer schedules against.
func longctxTraffic(opts options, share float64) []*request.Request {
	gen := workload.LongCtxMix(share)
	r := rng.New(opts.seed + 3000)
	n := int(opts.lcRate * opts.lcDur)
	reqs := workload.Build(gen, r, n, 1, 512)
	workload.AssignPoissonArrivals(reqs, r, opts.lcRate, 0)
	for _, q := range reqs {
		budget := opts.sla.TTFT
		if q.Class == workload.LongContext.Label {
			budget = opts.lcLongTTFT
		}
		q.TTFTDeadline = q.ArrivalTime + budget
	}
	return reqs
}

// buildLongctxFleet assembles the fixed-size Past-Future fleet all three
// arms share: big-KV replicas (long prompts resident next to chat decode
// need the room) with the same per-iteration prefill token budget — the
// only delta between the arms is the chunking configuration itself. The
// fleet is fixed-size for the same reason the multiturn sweep's is: the
// acceptance axis is equal provisioned capacity, and an autoscaler would
// paper over head-of-line blocking by scaling out.
func buildLongctxFleet(opts options, chunk engine.ChunkConfig) *cluster.Fleet {
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	engines := make([]*engine.Engine, opts.replicas)
	for i := range engines {
		engines[i] = engine.MustNew(engine.Config{
			Perf: pm,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(opts.seed + uint64(i)),
			}),
			CapacityOverride: opts.lcCap,
			MaxPrefillTokens: 4 * opts.lcChunk,
			Chunked:          chunk,
		})
	}
	f, err := cluster.New(cluster.Config{
		Replicas: engines,
		Policy:   opts.policy,
		Recorder: opts.rec,
	})
	if err != nil {
		fatal(err)
	}
	return f
}

// runLongctxOne serves one (share, arm) point and splits the SLA axes by
// class: short-request served p99 TTFT and attainment for the chat class,
// deadline attainment over all arrivals for the long-document class.
func runLongctxOne(opts options) row {
	var share float64
	var arm string
	if _, err := fmt.Sscanf(opts.scaler, "longctx-%f-%s", &share, &arm); err != nil {
		fatal(fmt.Errorf("bad longctx mode %q: %v", opts.scaler, err))
	}
	reqs := longctxTraffic(opts, share)
	f := buildLongctxFleet(opts, longctxChunk(arm, opts.lcChunk))
	results := f.Serve(reqs, 1e9)
	rep := f.Report(results, opts.sla)

	longArrived := 0
	for _, q := range reqs {
		if q.Class == workload.LongContext.Label {
			longArrived++
		}
	}
	var shortTTFTs []float64
	shortOK, shortServed, longOK, longServed := 0, 0, 0, 0
	var chunkIters int
	var chunks int64
	for _, res := range results {
		chunkIters += res.ChunkIters
		chunks += res.PrefillChunks
		for _, q := range res.Finished {
			if q.Class == workload.LongContext.Label {
				longServed++
				if t := q.TTFT(); t >= 0 && t <= opts.lcLongTTFT {
					longOK++
				}
				continue
			}
			shortServed++
			if t := q.TTFT(); t >= 0 {
				shortTTFTs = append(shortTTFTs, t)
				if t <= opts.sla.TTFT {
					shortOK++
				}
			}
		}
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
		Duration:       rep.Duration,
		LongShare:      share,
		ChunkPolicy:    arm,
		ShortServed:    shortServed,
		LongServed:     longServed,
		ChunkIters:     chunkIters,
		PrefillChunks:  chunks,
	}
	if len(shortTTFTs) > 0 {
		r.ShortP99TTFT = stats.Percentile(shortTTFTs, 0.99)
		r.ShortAttainment = float64(shortOK) / float64(shortServed)
	}
	if longArrived > 0 {
		r.LongAttainment = float64(longOK) / float64(longArrived)
	}
	return r
}

// printLongctx renders the share sweep as per-class TTFT curves under the
// standard table.
func printLongctx(rows []row) {
	header := false
	for _, r := range rows {
		if !strings.HasPrefix(r.Mode, "longctx-") {
			continue
		}
		if !header {
			fmt.Printf("%-22s %12s %10s %10s %10s %12s\n",
				"longctx", "short-p99", "short-att", "long-att", "served", "chunks")
			header = true
		}
		fmt.Printf("%-22s %11.2fs %9.1f%% %9.1f%% %5d+%-4d %12d\n",
			r.Mode, r.ShortP99TTFT, r.ShortAttainment*100, r.LongAttainment*100,
			r.ShortServed, r.LongServed, r.PrefillChunks)
	}
}
