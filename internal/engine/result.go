package engine

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/request"
)

// Result summarises one engine run. Per-request SLA metrics live on the
// Finished requests; the metrics package aggregates them into goodput.
type Result struct {
	// Scheduler is the admission policy's display name.
	Scheduler string
	// Duration is the simulated seconds from first activity to the last
	// iteration.
	Duration float64
	// Finished holds every completed request with its timing fields.
	Finished []*request.Request
	// Failed holds requests the engine dropped as unservable.
	Failed []*request.Request
	// TimedOut holds requests abandoned by SLA-aware clients after waiting
	// past the queue timeout (Config.QueueTimeout); they count as TTFT SLA
	// violations in goodput accounting.
	TimedOut []*request.Request
	// HandedOff holds requests a prefill-only engine completed at their
	// first token and released for KV migration to a decode engine; their
	// remaining lifecycle (and SLA metrics) conclude on the decode side.
	HandedOff []*request.Request

	// DecodeSteps counts decode (and splitfuse mixed) iterations — Table 1's
	// "Decoding Steps" column normalised per run.
	DecodeSteps int
	// CoastedSteps counts the decode steps among them that cost O(1): the
	// engine owed each running request its token and settled the batch once
	// per run of such steps (see Engine). Host-side bookkeeping — no
	// simulated number depends on it.
	CoastedSteps int
	// PrefillIters counts fused prefill iterations.
	PrefillIters int
	// ChunkIters counts chunked-prefill iterations (chunked mode only).
	ChunkIters int
	// PrefillChunks counts prefill chunks carved across them.
	PrefillChunks int64
	// Evictions counts eviction events (one request can be evicted several
	// times) — the numerator of Table 1's "Evicted Reqs".
	Evictions int
	// Admissions counts admission events (first-time plus re-admissions).
	Admissions int

	// OutputTokens / InputTokens are totals over finished and in-flight work.
	OutputTokens int64
	InputTokens  int64
	// RecomputeTokens counts prompt tokens re-encoded after evictions.
	RecomputeTokens int64
	// SwapInTokens counts KV tokens transferred back from host memory under
	// the swap eviction policy.
	SwapInTokens int64
	// PrefillComputeTokens counts prompt tokens actually encoded by prefill
	// iterations (fused, chunked, or padded static) — with prefix caching it
	// falls below InputTokens by exactly the cache's savings.
	PrefillComputeTokens int64
	// CacheHitTokens counts prompt tokens served by resident prefix-cache
	// blocks at admission (prefill skipped for free).
	CacheHitTokens int64
	// CacheRestoredTokens counts prompt tokens restored from the host
	// offload store (prefill replaced by host-link wire time).
	CacheRestoredTokens int64
	// PrefixCache is the pool's cache accounting at snapshot time (zero
	// value when caching is disabled).
	PrefixCache kv.PrefixStats

	// MemUtilization is the time-weighted mean logical KV occupancy (0..1) —
	// Table 1's "Current Consumed Memory".
	MemUtilization float64
	// PhysMemUtilization includes block fragmentation.
	PhysMemUtilization float64
	// FutureRequiredMean is the mean, over admission events, of the
	// ground-truth future peak divided by capacity — Table 1's "Future
	// Required Memory". Values above 1 mean admissions that guarantee
	// future evictions.
	FutureRequiredMean float64
	// FutureRequiredMax is the worst single admission.
	FutureRequiredMax float64
	// MeanBatchSize is the time-weighted mean running batch size.
	MeanBatchSize float64
	// PeakUsedTokens is the KV pool's logical high-water mark.
	PeakUsedTokens int
	// CapacityTokens echoes the pool capacity for ratio reporting.
	CapacityTokens int
}

// EvictionRate returns evictions per finished request (can exceed 1; the
// paper reports >100% for the aggressive scheduler under heavy load).
func (r *Result) EvictionRate() float64 {
	if len(r.Finished) == 0 {
		return 0
	}
	return float64(r.Evictions) / float64(len(r.Finished))
}

// Throughput returns output tokens per simulated second.
func (r *Result) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.OutputTokens) / r.Duration
}

// String summarises the run for logs.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %d finished, %d failed, %d decode steps, %d evictions, mem %.1f%%, future %.1f%%, %.0f tok/s",
		r.Scheduler, len(r.Finished), len(r.Failed), r.DecodeSteps, r.Evictions,
		r.MemUtilization*100, r.FutureRequiredMean*100, r.Throughput())
}

// Run steps the engine until it drains completely and returns the result.
func (e *Engine) Run() *Result {
	for e.Step() {
	}
	return e.Snapshot()
}

// RunUntil steps until the simulated clock reaches deadline or the engine
// drains, whichever comes first. Closed-loop experiments use this with
// clients that stop submitting at the deadline.
func (e *Engine) RunUntil(deadline float64) *Result {
	for e.clock < deadline {
		if !e.Step() {
			break
		}
	}
	return e.Snapshot()
}

// Snapshot assembles a Result from the current counters without stepping.
func (e *Engine) Snapshot() *Result {
	e.settle()
	name := "static-batch"
	if e.sched != nil {
		name = e.sched.Name()
	}
	return &Result{
		Scheduler:            name,
		Duration:             e.clock - e.startClock,
		Finished:             append([]*request.Request(nil), e.finished...),
		Failed:               append([]*request.Request(nil), e.failed...),
		TimedOut:             append([]*request.Request(nil), e.timedOut...),
		HandedOff:            append([]*request.Request(nil), e.handedOff...),
		DecodeSteps:          e.decodeSteps,
		CoastedSteps:         e.coastedSteps,
		PrefillIters:         e.prefillIters,
		ChunkIters:           e.chunkIters,
		PrefillChunks:        e.prefillChunks,
		Evictions:            e.evictions,
		Admissions:           e.admissions,
		OutputTokens:         e.outputTokens,
		InputTokens:          e.inputTokens,
		RecomputeTokens:      e.recomputeTokens,
		SwapInTokens:         e.swapInTokens,
		PrefillComputeTokens: e.prefillComputeTokens,
		CacheHitTokens:       e.cacheHitTokens,
		CacheRestoredTokens:  e.cacheRestoredTokens,
		PrefixCache:          e.pool.PrefixStats(),
		MemUtilization:       e.memUtil.Mean(),
		PhysMemUtilization:   e.physUtil.Mean(),
		FutureRequiredMean:   e.futureReq.Mean(),
		FutureRequiredMax:    e.futureReq.Max(),
		MeanBatchSize:        e.batchSize.Mean(),
		PeakUsedTokens:       e.pool.PeakUsedTokens(),
		CapacityTokens:       e.pool.CapacityTokens(),
	}
}
