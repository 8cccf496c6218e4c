package engine

import (
	"math"

	"github.com/lightllm-go/lightllm/internal/request"
)

// Chunked prefill: instead of fusing every admitted prompt into one blocking
// prefill iteration, admissions reserve their full KV footprint up front and
// their prompts land chunk by chunk, each chunk fused with one decode step for
// the running batch. A 32k-token prompt therefore costs the batch a sequence
// of bounded mixed iterations rather than one multi-second stall — the
// head-of-line-blocking fix. Greedy chunks under a fixed MaxPrefillTokens
// budget are DeepSpeed-MII's Dynamic SplitFuse (FastGen).
//
// Two chunk sizers are selectable (ChunkConfig.Policy): the greedy fixed
// chunk of Sarathi/DeepSpeed-FastGen, and an SLO-aware sizer that spends a
// bounded share of the tightest waiting request's remaining TTFT budget
// per chunk — long prompts yield to tight deadlines behind them and
// stretch out when slack is plentiful. The greedy policy doubles as the
// reference the SLO-aware sizer is held to: with no deadline waiting, the
// sizer carves maxChunkTokens and decides exactly as greedy does at that
// chunk size (TestChunkPolicyEquivalence).

// The SLO-aware sizer's window and share: a chunk spends at most
// slackShare of the tightest waiter's remaining TTFT budget, floored at
// minChunkTokens so a starved budget still makes progress and capped at
// maxChunkTokens when slack is plentiful.
const (
	minChunkTokens = 128
	maxChunkTokens = 4096
	slackShare     = 0.25
)

// chunkEmit is one chunk's deferred recorder emission: chunks are carved
// before the iteration's duration is known, but observed at its end.
type chunkEmit struct {
	r           *request.Request
	tokens      int
	done, total int
}

// enqueueChunked moves freshly admitted requests into the chunk pipeline.
// Migrated, swapped, and cache-covered tokens never re-encode, so the
// chunk cursor starts past them: a crash mid-chunk whose prefix survived
// in cache re-prefills only from the last completed cached block, and from
// zero otherwise.
func (e *Engine) enqueueChunked(admitted []*request.Request) {
	for _, r := range admitted {
		need := r.Footprint()
		if r.Migrated {
			// KV arrived over the cluster transfer link; nothing to encode.
			r.Migrated = false
			need = 0
		} else if r.Swapped {
			// Swap recovery streams the KV back over the host link; the
			// transfer cost is charged to the next chunked iteration.
			e.pendingSwapIn += e.cfg.Perf.SwapTime(need)
			e.res.SwapInTokens += int64(need)
			r.Swapped = false
			need = 0
		} else if c := r.CachedTokens + r.RestoredTokens; c > 0 {
			if r.RestoredTokens > 0 {
				e.pendingSwapIn += e.cfg.Perf.SwapTime(r.RestoredTokens)
			}
			need -= c
		}
		if need > 0 {
			r.ChunkedPrefill = true
			r.PrefillDone = r.Footprint() - need
			e.chunkPending += need
		}
		e.prefilling = append(e.prefilling, r)
	}
}

// runChunked executes one chunked iteration: the running batch decodes one
// token while the chunk pipeline advances FCFS under the per-iteration
// prompt-token budget (MaxPrefillTokens; 0 = unlimited), each entry's
// chunk sized by the configured policy. Prompts whose last chunk lands
// join the running batch (RoleMixed) or complete and hand off
// (RolePrefillOnly) — KV handoff happens strictly after the final chunk.
func (e *Engine) runChunked() {
	decodeTokens := len(e.running)
	// With nothing in the chunk pipeline this is a plain decode iteration.
	batch, noChunks := len(e.running), len(e.prefilling) == 0
	budget := e.cfg.MaxPrefillTokens
	if budget <= 0 {
		budget = math.MaxInt
	}

	// The SLO-aware sizer's deadline signals, computed once per iteration.
	queueTight := math.Inf(1)
	if e.cfg.Chunked.Policy == ChunkSLOAware {
		queueTight = e.chunkSignals()
	}

	chunkUsed := 0
	nChunks := 0
	finished := e.finishScratch[:0]
	emits := e.chunkEmitScratch[:0]
	for idx, r := range e.prefilling {
		need := r.PrefillRemaining()
		if need == 0 { // migrated/swapped/fully cached: ready immediately
			finished = append(finished, r)
			continue
		}
		if budget <= 0 {
			continue
		}
		take := min(e.chunkSizeAt(idx, queueTight), need, budget)
		r.PrefillDone += take
		e.chunkPending -= take
		budget -= take
		chunkUsed += take
		nChunks++
		if e.rec != nil {
			emits = append(emits, chunkEmit{
				r: r, tokens: take, done: r.PrefillDone, total: r.Footprint(),
			})
		}
		if take == need {
			r.ChunkedPrefill = false
			r.PrefillDone = 0
			finished = append(finished, r)
		}
	}
	e.finishScratch = finished
	e.chunkEmitScratch = emits

	e.dropLanded()

	e.ensureExtendable(e.running)
	decodeTokens = len(e.running) // eviction may have shrunk the batch

	// Price the iteration on the KV that physically exists: reservations
	// not yet landed (chunkPending) stream nothing through the kernels.
	kvTokens := e.pool.UsedTokens() - e.chunkPending + decodeTokens
	dur := e.scaled(e.cfg.Perf.ChunkedTime(chunkUsed, nChunks, decodeTokens, kvTokens) + e.pendingSwapIn)
	e.res.PrefillComputeTokens += int64(chunkUsed)
	e.pendingSwapIn = 0
	e.clock += dur
	e.res.ChunkIters++
	e.res.PrefillChunks += int64(nChunks)
	e.res.DecodeSteps++ // a chunked iteration advances decoding by one step

	e.decodeRunning()
	if e.rec != nil {
		for _, c := range e.chunkEmitScratch {
			e.rec.Chunk(e.clock, c.r, e.obsPool, e.obsRep, c.tokens, c.done, c.total)
		}
	}
	if e.cfg.Role == RolePrefillOnly {
		// Prefill-only engines emit the handoff strictly after the last
		// chunk: the KV transfer needs the whole prompt's cache to exist.
		e.completePrefills(e.finishScratch)
	} else {
		// Fully chunked prompts join the running batch; their first token
		// emits on the next iteration, like prefill-priority admission.
		e.running = append(e.running, e.finishScratch...)
	}
	e.completeDone()
	if noChunks && e.keptBatch(batch) {
		e.lastStep = StepPureDecode
	}
	e.observe(e.clock)
	e.iterationHook("chunked", dur, decodeTokens+nChunks)
}

// chunkSignals computes the SLO-aware sizer's per-iteration deadline
// signals: it fills e.chunkSuffix with, for each chunk pipeline position,
// the tightest first-token deadline strictly behind it (suffix minima over
// e.prefilling), and returns the tightest deadline waiting in the queue
// (+Inf when none). Alloc-free in steady state: the suffix array is a
// reused scratch buffer.
func (e *Engine) chunkSignals() float64 {
	queueTight := math.Inf(1)
	e.queue.ForEach(func(r *request.Request) {
		if r.FirstTokenAt < 0 && r.TTFTDeadline > 0 && r.TTFTDeadline < queueTight {
			queueTight = r.TTFTDeadline
		}
	})
	if n := len(e.prefilling) + 1; cap(e.chunkSuffix) < n {
		e.chunkSuffix = make([]float64, n)
	} else {
		e.chunkSuffix = e.chunkSuffix[:n]
	}
	e.chunkSuffix[len(e.prefilling)] = math.Inf(1)
	for i := len(e.prefilling) - 1; i >= 0; i-- {
		d := math.Inf(1)
		if r := e.prefilling[i]; r.PrefillRemaining() > 0 && r.FirstTokenAt < 0 && r.TTFTDeadline > 0 {
			d = r.TTFTDeadline
		}
		if s := e.chunkSuffix[i+1]; s < d {
			d = s
		}
		e.chunkSuffix[i] = d
	}
	return queueTight
}

// chunkSizeAt returns the chunk the pipeline entry at idx may carve this
// iteration, before the per-iteration budget and the entry's own remaining
// need clamp it. queueTight is the tightest TTFT deadline waiting in the
// queue (+Inf when none).
func (e *Engine) chunkSizeAt(idx int, queueTight float64) int {
	if e.cfg.Chunked.Policy != ChunkSLOAware {
		return e.cfg.Chunked.ChunkTokens
	}
	tight := queueTight
	if s := e.chunkSuffix[idx+1]; s < tight {
		tight = s
	}
	if math.IsInf(tight, 1) {
		// Nobody with a deadline is waiting behind this prompt: stretch the
		// chunk out and amortise the per-chunk overhead.
		return maxChunkTokens
	}
	slack := tight - e.clock
	if slack <= 0 {
		return minChunkTokens
	}
	return min(max(e.cfg.Perf.PrefillTokensWithin(slack*slackShare), minChunkTokens), maxChunkTokens)
}
