package main

import (
	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/engine"
)

// engineLayers fills the per-layer figures the engines' public counters
// supply.
func engineLayers(l map[string]float64, sent int, results []*engine.Result, engines []*engine.Engine) {
	var (
		evictions, admissions, dropped, admitting int
		steps, chunks                             int64
		input, recompute, hit, restored           int64
		evictedBlocks, droppedBlocks              int64
		memUtil, mstar, peakUtil                  float64
	)
	for _, res := range results {
		evictions += res.Evictions
		admissions += res.Admissions
		dropped += len(res.TimedOut)
		steps += int64(res.DecodeSteps + res.PrefillIters + res.ChunkIters)
		chunks += res.PrefillChunks
		input += res.InputTokens
		recompute += res.RecomputeTokens
		hit += res.CacheHitTokens
		restored += res.CacheRestoredTokens
		evictedBlocks += res.PrefixCache.EvictedBlocks
		droppedBlocks += res.PrefixCache.DroppedBlocks
		memUtil += res.MemUtilization
		if res.Admissions > 0 {
			admitting++
			mstar += res.FutureRequiredMean
		}
		if res.CapacityTokens > 0 {
			if u := float64(res.PeakUsedTokens) / float64(res.CapacityTokens); u > peakUtil {
				peakUtil = u
			}
		}
	}
	l["engine.steps"] = float64(steps)
	l["engine.chunks"] = float64(chunks)
	l["engine.dropped"] = float64(dropped)
	l["engine.recompute_token_share"] = ratio(float64(recompute), float64(input))
	l["core.evictions_per_kreq"] = 1000 * ratio(float64(evictions), float64(sent))
	l["core.admit_useful_share"] = ratio(float64(admissions-evictions), float64(admissions))
	l["core.mstar_mean_share"] = ratio(mstar, float64(admitting))
	l["kv.mem_util_mean"] = ratio(memUtil, float64(len(results)))
	l["kv.peak_util"] = peakUtil
	l["kv.prefix_hit_token_share"] = ratio(float64(hit+restored), float64(input))
	l["kv.prefix_restored_tokens"] = float64(restored)
	l["kv.prefix_evicted_blocks"] = float64(evictedBlocks)
	l["kv.prefix_dropped"] = float64(droppedBlocks)
	adds := uint64(0)
	for _, e := range engines {
		adds += e.History().Generation()
	}
	l["dist.window_adds"] = float64(adds)
}

// clusterLayers fills the figures a cluster report supplies.
func clusterLayers(l map[string]float64, rep cluster.Report, sent int, events int64) {
	l["cluster.events"] = float64(events)
	l["cluster.events_per_request"] = ratio(float64(events), float64(sent))
	l["cluster.shed_share"] = ratio(float64(rep.Shed), float64(sent))
	l["cluster.scale_outs"] = float64(rep.ScaleOuts)
	l["cluster.scale_ins"] = float64(rep.ScaleIns)
	l["cluster.replica_seconds"] = rep.ReplicaSeconds
	l["cluster.cost_seconds"] = rep.CostSeconds
	l["cluster.imbalance"] = rep.Imbalance
	l["kv.link_xfers"] = float64(rep.Handoffs)
	l["kv.link_retries"] = float64(rep.Summary.TransferRetries)
	l["faults.crashes"] = float64(rep.Summary.Crashes)
	l["faults.orphans"] = float64(rep.Summary.Orphaned)
	l["faults.recovered"] = float64(rep.Summary.Recovered)
	l["faults.lost"] = float64(rep.Summary.Lost)
}

// tracerLayers adds the figures only the traced replay rp can supply, below
// the cluster.
func tracerLayers(l map[string]float64, t *tracer, rp *replay) {
	admit, self := t.seconds(layerAdmit), t.seconds(layerEngine)
	l["workload.next_s"] = t.seconds(layerNext)
	l["workload.next_calls"] = float64(t.nextCalls)
	l["core.admit_s"] = admit
	l["core.admit_calls"] = float64(t.admitCalls)
	l["core.admit_ns_per_call"] = ratio(admit*1e9, float64(t.admitCalls))
	l["core.admitted_per_call"] = ratio(float64(t.admitted), float64(t.admitCalls))
	l["core.queue_len_mean"] = ratio(float64(t.queueLenSum), float64(t.admitCalls))
	l["core.running_mean"] = ratio(float64(t.runLenSum), float64(t.admitCalls))
	l["engine.step_s"] = admit + self
	l["engine.self_s"] = self
	l["engine.step_ns"] = ratio((admit+self)*1e9, l["engine.steps"])
	l["engine.batch_mean"], l["engine.batch_p99"] = t.batchStats()
	l["engine.prefill_iter_share"] = ratio(float64(t.itersByKind["prefill"]), float64(t.iters))
	l["engine.mixed_iter_share"] = ratio(float64(t.itersByKind["mixed"]), float64(t.iters))
	l["engine.sim_busy_share"] = ratio(t.busySim, rp.busySpan)
	l["engine.queue_wait_sim_s_p50"] = pct(t.queueWaits, 0.50)
	l["engine.queue_wait_sim_s_p99"] = pct(t.queueWaits, 0.99)
	l["engine.chunk_tokens_mean"] = ratio(float64(t.chunkTokens), float64(t.chunkCount))
	l["kv.link_wait_sim_s_p99"] = pct(t.linkWaits, 0.99)
	l["kv.link_gb"] = float64(t.linkBytes) / 1e9
	l["obs.callbacks"] = float64(t.callbacks)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
