package engine

import (
	"fmt"
	"math"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
)

// maxAdmitRetries bounds re-asking a sampling scheduler about an otherwise
// unservable queue head before the engine fails the request.
const maxAdmitRetries = 3

// Step executes one engine iteration and returns false when the engine is
// fully drained (no queue, no batch, no future arrivals).
func (e *Engine) Step() bool {
	if e.coast() {
		return true
	}
	e.settle()
	e.released = false
	e.pureDecode = false
	e.minLeft = 0
	if e.Idle() {
		return false
	}
	if !e.started {
		e.started = true
		if e.arrivals.Len() > 0 && e.arrivals[0].at > e.clock {
			e.clock = e.arrivals[0].at
		}
		e.startClock = e.clock
		e.memUtil.Start(e.clock)
		e.physUtil.Start(e.clock)
		e.batchSize.Start(e.clock)
	}
	e.moveArrivals()
	e.dropExpired()

	if e.cfg.Strategy == StaticBatch {
		return e.stepStatic()
	}

	var admitted []*request.Request
	if e.queue.Len() > 0 {
		admitted = e.admit()
	}

	switch e.cfg.Strategy {
	case SplitFuse:
		for _, r := range admitted {
			need := r.Footprint()
			if r.Swapped {
				// Swap recovery needs no chunked recompute; the transfer
				// cost is charged to the next mixed iteration.
				e.pendingSwapIn += e.cfg.Perf.SwapTime(need)
				e.swapInTokens += int64(need)
				r.Swapped = false
				need = 0
			} else if c := r.CachedTokens + r.RestoredTokens; c > 0 {
				// Prefix-cache hits need no chunked recompute; restored
				// blocks charge their host-link wire time to the next mixed
				// iteration, like swap-in. A fully covered prompt (need 0)
				// joins the running batch immediately.
				if r.RestoredTokens > 0 {
					e.pendingSwapIn += e.cfg.Perf.SwapTime(r.RestoredTokens)
				}
				need -= c
			}
			e.prefilling = append(e.prefilling, &prefillState{req: r, need: need})
		}
		if len(e.running)+len(e.prefilling) > 0 {
			e.runMixed()
			return true
		}
	default: // PrefillPriority
		if e.cfg.Chunked.Enabled {
			e.enqueueChunked(admitted)
			if len(e.running)+len(e.prefilling) > 0 {
				e.runChunked()
				return true
			}
			break
		}
		if len(admitted) > 0 {
			e.runPrefill(admitted)
			return true
		}
		if len(e.running) > 0 {
			e.runDecode()
			return true
		}
	}

	// Nothing is running and nothing was admitted.
	if e.arrivals.Len() > 0 {
		next := e.arrivals[0].at
		if next > e.clock {
			e.observe(next) // idle gap: occupancy holds (zero) until arrival
			e.clock = next
		}
		e.moveArrivals()
		return true
	}
	if e.queue.Len() > 0 {
		// No memory can ever free (empty batch) and the scheduler refuses
		// the head. Retry a few times for sampling schedulers, then fail it.
		e.admitRetries++
		if e.admitRetries >= maxAdmitRetries {
			e.failRequest(e.queue.PopFront())
			e.admitRetries = 0
		}
		return true
	}
	return false
}

// coast takes a decode step in O(1) when the per-token step (runDecode) could
// change nothing but one token per running request, and reports whether it
// did. It is chosen per step from what the engine can observe; each term of
// the condition removes one thing the per-token step might do besides:
//
//   - minLeft > 0: the previous Step was a runDecode that kept its batch, so
//     every running request has its first token and LastEmitAt == clock — the
//     gap this step adds is the clock advance, the same for all of them (a
//     prefill's newcomers have neither; chunked, split-fuse and static
//     iterations never set minLeft);
//   - owed+1 < minLeft: no running request emits its last token on this step,
//     so nobody finishes, the history window holds and no hook fires;
//   - nothing queued and no arrival due: no admission round (a sampling
//     scheduler draws from its generator in every one) and no queue timeout;
//   - no OnToken hook: nobody is told of tokens one by one;
//   - block size 1 and a physically free block for every owed token and this
//     step's: each token is one block, nothing is evicted, and no cached
//     prefix block is reclaimed to make room (AvailableBlocks would count
//     those as free).
//
// What remains is engine-wide: the step's duration priced on the KV the batch
// would hold, the clock, the counters, the occupancy series and the iteration
// observers, all read off the owed-adjusted pool numbers.
func (e *Engine) coast() bool {
	n := len(e.running)
	if e.owed+1 >= e.minLeft || e.queue.Len() > 0 ||
		(e.arrivals.Len() > 0 && e.arrivals[0].at <= e.clock) ||
		e.cfg.Hooks.OnToken != nil ||
		e.pool.BlockSize() != 1 || (e.owed+1)*n > e.pool.FreeBlocks() {
		return false
	}
	prev := e.clock
	dur := e.scaled(e.cfg.Perf.DecodeTime(n, e.usedTokens()+n))
	e.clock += dur
	e.decodeSteps++
	e.coastedSteps++
	e.outputTokens += int64(n)
	e.owed++
	// What EmitToken would measure: every request last emitted at prev.
	if gap := e.clock - prev; gap > e.owedGap {
		e.owedGap = gap
	}
	e.observe(e.clock)
	e.iterationHook("decode", dur, n)
	return true
}

// settle hands every running request the tokens coasted steps owe it — KV
// growth, Generated, LastEmitAt, MaxGap — in one pass, leaving the engine as
// the per-token path would have. The pool's usage only grew over the run, so
// its peaks land on the values they would have reached token by token.
func (e *Engine) settle() {
	k := e.owed
	if k == 0 {
		return
	}
	e.owed = 0
	for _, r := range e.running {
		if !e.pool.Extend(r.KV, k) {
			panic(fmt.Sprintf("engine: no room for %d owed tokens of request %d", k, r.ID))
		}
		r.EmitTokens(k, e.clock, e.owedGap)
	}
	e.minLeft -= k
	e.owedGap = 0
}

// owedTokens is how many tokens the pool's usage trails the engine by — and
// how many blocks: the block size is 1 whenever any are owed.
func (e *Engine) owedTokens() int { return e.owed * len(e.running) }

// usedTokens is the pool's logical usage with the owed tokens counted: what
// UsedTokens would read had every coasted step extended the batch.
func (e *Engine) usedTokens() int { return e.pool.UsedTokens() + e.owedTokens() }

// moveArrivals transfers due arrivals into the FCFS queue.
func (e *Engine) moveArrivals() {
	for e.arrivals.Len() > 0 && e.arrivals[0].at <= e.clock {
		e.queue.PushBack(e.arrivals.pop().r)
	}
}

// dropExpired abandons queued requests whose TTFT deadline has passed
// (QueueTimeout semantics; see Config). Re-queued evicted requests, which
// have already streamed tokens, are exempt.
func (e *Engine) dropExpired() {
	if e.cfg.QueueTimeout <= 0 || e.queue.Len() == 0 {
		return
	}
	e.queue.Filter(
		func(r *request.Request) bool {
			return !(r.FirstTokenAt < 0 && e.clock-r.ArrivalTime > e.cfg.QueueTimeout)
		},
		func(r *request.Request) {
			r.MarkDropped(e.clock)
			e.timedOut = append(e.timedOut, r)
			e.released = true
			if e.cfg.Hooks.OnDrop != nil {
				e.cfg.Hooks.OnDrop(e.clock, r)
			}
			if e.rec != nil {
				e.rec.Drop(e.clock, r, e.obsPool, e.obsRep)
			}
		},
	)
}

// admit asks the scheduler for a FCFS prefix, allocates prompt memory, and
// removes the admitted requests from the queue. All slices it hands out
// (the scheduler's view, the OnAdmit hook argument, the returned admissions)
// are per-step scratch buffers: valid until the next Step, never retained
// by the engine, and must not be retained by hooks or schedulers. Reusing
// them keeps a steady-state Step free of heap allocations.
func (e *Engine) admit() []*request.Request {
	batchView := e.running
	if len(e.prefilling) > 0 {
		e.batchScratch = append(e.batchScratch[:0], e.running...)
		for _, p := range e.prefilling {
			e.batchScratch = append(e.batchScratch, p.req)
		}
		batchView = e.batchScratch
	}
	e.queueScratch = e.queue.AppendTo(e.queueScratch[:0])
	e.viewScratch = core.View{
		Now:            e.clock,
		CapacityTokens: e.pool.CapacityTokens(),
		UsedTokens:     e.pool.UsedTokens(),
		FreeTokens:     e.pool.FreeTokens(),
		Running:        batchView,
		History:        e.history,
	}
	if e.classHist != nil {
		e.viewScratch.ClassHistory = e.ClassWindow
	}
	n := e.sched.Admit(&e.viewScratch, e.queueScratch)
	if n <= 0 {
		return nil
	}
	if e.cfg.Strategy == PrefillPriority && e.cfg.MaxPrefillTokens > 0 && !e.cfg.Chunked.Enabled {
		// Chunked prefill repurposes MaxPrefillTokens as the per-iteration
		// chunk budget instead of an admission trim: admissions reserve KV
		// immediately and their prompts land chunk by chunk.
		// Trim the admitted prefix to the prefill token budget via the
		// deque's maintained prefix sums — one O(log n) search instead of
		// re-walking every candidate's footprint. At least one request is
		// always prefilled so oversized prompts still make progress.
		if cut := e.queue.PrefixWithin(int64(e.cfg.MaxPrefillTokens), n); cut < n {
			n = cut
			if n < 1 {
				n = 1
			}
		}
	}
	admitted := e.admitScratch[:0]
	for i := 0; i < n; i++ {
		r := e.queue.Front()
		if !e.allocateFor(r) {
			break // block fragmentation: physically infeasible, stop here
		}
		e.queue.PopFront()
		r.State = request.Running
		r.Admissions++
		e.admissions++
		// A migrated first admission encodes nothing here: the prompt was
		// processed on the prefill engine and the KV arrived over the link,
		// so neither input nor recompute tokens accrue to this engine.
		if !r.Migrated {
			e.inputTokens += int64(r.InputLen)
			if r.Generated > 0 && !r.Swapped {
				e.recomputeTokens += int64(r.Footprint() - r.CachedTokens - r.RestoredTokens)
			}
		}
		admitted = append(admitted, r)
	}
	e.admitScratch = admitted
	if len(admitted) == 0 {
		return nil
	}
	e.admitRetries = 0
	if e.cfg.Hooks.OnAdmit != nil {
		e.cfg.Hooks.OnAdmit(e.clock, admitted)
	}
	if e.rec != nil {
		cached := e.pool.PrefixCacheEnabled()
		for _, r := range admitted {
			e.rec.Admit(e.clock, r, e.obsPool, e.obsRep)
			if !cached || r.Migrated {
				continue
			}
			if r.CachedTokens > 0 {
				e.rec.CacheEvent(e.clock, e.obsPool, e.obsRep, obs.CacheHit, r.CachedTokens)
			}
			if r.RestoredTokens > 0 {
				e.rec.CacheEvent(e.clock, e.obsPool, e.obsRep, obs.CacheRestore, r.RestoredTokens)
			}
			if miss := r.Footprint() - r.CachedTokens - r.RestoredTokens; miss > 0 && !r.Swapped {
				e.rec.CacheEvent(e.clock, e.obsPool, e.obsRep, obs.CacheMiss, miss)
			}
		}
	}
	// Record the ground-truth future peak of the post-admission batch
	// (Table 1's "Future Required Memory") via the reusable estimator.
	e.truePeak.Reset()
	for _, r := range batchView {
		e.truePeak.PushTrue(r)
	}
	for _, r := range admitted {
		e.truePeak.PushTrue(r)
	}
	e.futureReq.Add(float64(e.truePeak.Peak()) / float64(e.pool.CapacityTokens()))
	return admitted
}

// allocateFor reserves KV memory for an admission. With prefix caching
// enabled and a hash-carrying fresh prompt, resident prefix blocks are
// shared instead of reallocated and offloaded blocks are restored over the
// host link when the wire is cheaper than recomputing them; the request is
// stamped with the tokens its prefill will not re-encode. Migrated and
// swapped admissions already carry their KV state and bypass the cache.
func (e *Engine) allocateFor(r *request.Request) bool {
	if r.KV != (kv.Handle{}) {
		panic(fmt.Sprintf("engine: request %d admitted while holding KV memory", r.ID))
	}
	if !e.pool.PrefixCacheEnabled() || len(r.PrefixHashes) == 0 || r.Migrated || r.Swapped {
		h, ok := e.pool.Allocate(r.Footprint())
		r.KV = h
		return ok
	}
	restore := 0
	hitBlocks, offBlocks := e.pool.MatchPrefixDetail(r.PrefixHashes)
	if offBlocks > 0 {
		// Restore-vs-recompute: restoring C tokens pays wire time; skipping
		// it folds them into the prefill's marginal compute on top of the
		// tokens that must be encoded anyway.
		bt := e.pool.PrefixBlockTokens()
		c := offBlocks * bt
		miss := r.Footprint() - hitBlocks*bt - c
		if e.cfg.Perf.SwapTime(c) < e.cfg.Perf.PrefillMarginal(miss, c) {
			restore = offBlocks
		}
	}
	h, hit, restored, ok := e.pool.AllocatePrefixed(r.Footprint(), r.PrefixHashes, restore)
	if !ok {
		return false
	}
	r.KV = h
	r.CachedTokens = hit
	r.RestoredTokens = restored
	e.cacheHitTokens += int64(hit)
	e.cacheRestoredTokens += int64(restored)
	return true
}

// free releases a request's KV allocation together with its handle and its
// prefix-cache stamps: once the allocation is gone the shared blocks are
// unpinned, so the discount must not survive into the estimators or a
// re-admission.
func (e *Engine) free(r *request.Request) {
	e.pool.Free(r.KV)
	r.KV = kv.Handle{}
	r.CachedTokens = 0
	r.RestoredTokens = 0
	r.ChunkedPrefill = false
	r.PrefillDone = 0
}

// ensureExtendable evicts running requests (most recently admitted first)
// until every request in grow can gain one token; if even a lone request
// cannot grow, it is failed. One token needs at most one new block per
// request, so with a free block for each of them there is nothing to count.
func (e *Engine) ensureExtendable(grow []*request.Request) {
	if len(grow) <= e.pool.AvailableBlocks() {
		return
	}
	for {
		need := 0
		for _, r := range grow {
			if e.pool.Allocated(r.KV) { // evicted entries drop out
				need += e.pool.BlocksNeededToExtendByOne(r.KV)
			}
		}
		// Reclaimable cached blocks count as space: Extend evicts cold cache
		// LRU-first, so running requests are never preempted to protect it.
		if need <= e.pool.AvailableBlocks() {
			return
		}
		switch {
		case len(e.running) > 1:
			e.evictLast()
		case len(e.running) == 1:
			// A single running request that cannot grow: unservable.
			victim := e.running[0]
			e.running = e.running[:0]
			e.free(victim)
			e.failRequest(victim)
		default:
			return // nothing evictable; callers handle failed extensions
		}
	}
}

// evictLast evicts the most recently admitted running request (vLLM's
// recompute preemption): free its memory and push it to the queue front.
func (e *Engine) evictLast() {
	victim := e.running[len(e.running)-1]
	e.running = e.running[:len(e.running)-1]
	e.free(victim)
	victim.State = request.Waiting
	victim.Evictions++
	if e.cfg.Eviction == Swap {
		victim.Swapped = true // KV parked in host memory
	}
	e.evictions++
	e.queue.PushFront(victim)
	if e.cfg.Hooks.OnEvict != nil {
		e.cfg.Hooks.OnEvict(e.clock, victim)
	}
	if e.rec != nil {
		e.rec.Evict(e.clock, victim, e.obsPool, e.obsRep)
	}
}

// runPrefill executes one fused prefill iteration over the admitted prompts
// (prefill-priority strategy): decode pauses while the admitted prompts are
// encoded; the newcomers join the running batch and emit their first token
// at the next decode step. This matches the paper's memory model exactly: a
// request admitted with l_t generated tokens occupies l_p + l_t slots and
// grows by one per decode step until its predicted length.
func (e *Engine) runPrefill(admitted []*request.Request) {
	promptTokens := 0
	swapTokens := 0
	restoreTokens := 0
	for _, r := range admitted {
		if r.Migrated {
			// First admission of a KV migration from a prefill engine: the
			// cache arrived over the cluster's transfer link (already
			// simulated there), so this engine pays nothing. A later
			// eviction clears the flag's benefit: recompute as usual.
			r.Migrated = false
			continue
		}
		if r.Swapped {
			// Swap recovery: the KV state streams back over the host link
			// instead of being recomputed.
			swapTokens += r.Footprint()
			r.Swapped = false
			e.swapInTokens += int64(r.Footprint())
			continue
		}
		// Prefix-cache hits are prompt tokens this iteration never encodes;
		// offload restores replace their compute with host-link wire time.
		promptTokens += r.Footprint() - r.CachedTokens - r.RestoredTokens
		restoreTokens += r.RestoredTokens
	}
	dur := e.scaled(e.cfg.Perf.PrefillTime(promptTokens) + e.cfg.Perf.SwapTime(swapTokens) +
		e.cfg.Perf.SwapTime(restoreTokens))
	e.prefillComputeTokens += int64(promptTokens)
	e.clock += dur
	e.prefillIters++
	if e.cfg.Role == RolePrefillOnly {
		e.completePrefills(admitted)
		e.observe(e.clock)
		e.iterationHook("prefill", dur, len(admitted))
		return
	}
	e.running = append(e.running, admitted...)
	e.observe(e.clock)
	e.iterationHook("prefill", dur, len(admitted))
}

// completePrefills ends admitted requests at their first token (prefill-only
// role): the prefill pass computes the first output token, the KV memory is
// released for the next prompt wave, and the request either finishes here
// (single-token outputs need no decode phase) or is handed off for KV
// migration to a decode engine.
func (e *Engine) completePrefills(admitted []*request.Request) {
	for _, r := range admitted {
		first := r.FirstTokenAt < 0
		r.EmitToken(e.clock)
		if e.cfg.Hooks.OnToken != nil {
			e.cfg.Hooks.OnToken(e.clock, r)
		}
		if first && e.rec != nil {
			e.rec.FirstToken(e.clock, r, e.obsPool, e.obsRep)
		}
		e.outputTokens++
		e.free(r)
		e.released = true
		if r.Done() {
			r.Finish(e.clock)
			e.recordFinishedLength(r.Class, r.TrueOutputLen)
			e.finished = append(e.finished, r)
			if e.cfg.Hooks.OnFinish != nil {
				e.cfg.Hooks.OnFinish(e.clock, r)
			}
			if e.rec != nil {
				e.rec.Finish(e.clock, r, e.obsPool, e.obsRep)
			}
			continue
		}
		r.PrefillDoneAt = e.clock
		e.handedOff = append(e.handedOff, r)
		if e.cfg.Hooks.OnHandoff != nil {
			e.cfg.Hooks.OnHandoff(e.clock, r)
		}
	}
}

// runDecode executes one decode step: every running request emits one token.
func (e *Engine) runDecode() {
	batch := len(e.running)
	e.ensureExtendable(e.running)
	if len(e.running) == 0 {
		return
	}
	n := len(e.running)
	kvTokens := e.pool.UsedTokens() + n
	dur := e.scaled(e.cfg.Perf.DecodeTime(n, kvTokens))
	e.clock += dur
	e.decodeSteps++
	minLeft := math.MaxInt
	for _, r := range e.running {
		if !e.pool.Extend(r.KV, 1) {
			// ensureExtendable guarantees space; defensive requeue.
			e.requeue(r)
			continue
		}
		first := r.FirstTokenAt < 0
		r.EmitToken(e.clock)
		if e.cfg.Hooks.OnToken != nil {
			e.cfg.Hooks.OnToken(e.clock, r)
		}
		if first && e.rec != nil {
			e.rec.FirstToken(e.clock, r, e.obsPool, e.obsRep)
		}
		e.outputTokens++
		minLeft = min(minLeft, r.RemainingTrue())
	}
	e.completeDone()
	e.pureDecode = e.keptBatch(batch)
	if e.pureDecode {
		e.minLeft = minLeft // the batch coast may start from
	}
	e.observe(e.clock)
	e.iterationHook("decode", dur, n)
}

// keptBatch reports whether a decode iteration that began with batch running
// requests and an empty prefill pipeline ended with the same ones: evictions,
// failed extensions and finishes only ever shrink the batch, and every way
// out of the engine (a queue timeout earlier in the Step included) sets
// released.
func (e *Engine) keptBatch(batch int) bool {
	return len(e.running) == batch && !e.released
}

// runMixed executes one splitfuse iteration: all running requests decode one
// token, and leftover token budget advances queued prompt chunks.
func (e *Engine) runMixed() {
	decodeTokens := len(e.running)
	budget := e.cfg.SplitFuseBudget
	if budget < decodeTokens {
		budget = decodeTokens // decode always proceeds
	}
	chunk := budget - decodeTokens
	chunkUsed := 0
	nChunked := 0 // prompts that advanced this iteration
	var finishedPrefills []*request.Request
	for _, p := range e.prefilling {
		if p.need == 0 { // swapped-in request: ready immediately
			finishedPrefills = append(finishedPrefills, p.req)
			continue
		}
		if chunk == 0 {
			continue
		}
		take := p.need
		if take > chunk {
			take = chunk
		}
		p.need -= take
		chunk -= take
		chunkUsed += take
		nChunked++
		if p.need == 0 {
			finishedPrefills = append(finishedPrefills, p.req)
		}
	}
	// Drop completed prefills from the chunk pipeline (FIFO prefix).
	remaining := e.prefilling[:0]
	for _, p := range e.prefilling {
		if p.need > 0 {
			remaining = append(remaining, p)
		}
	}
	e.prefilling = remaining

	e.ensureExtendable(e.running)
	lanes := len(e.running) // eviction may have shrunk the batch

	computeTokens := decodeTokens + chunkUsed
	kvTokens := e.pool.UsedTokens() + lanes
	dur := e.scaled(e.cfg.Perf.MixedTime(computeTokens, kvTokens) + e.pendingSwapIn)
	e.prefillComputeTokens += int64(chunkUsed)
	e.pendingSwapIn = 0
	e.clock += dur
	e.mixedIters++
	e.decodeSteps++ // a mixed iteration advances decoding by one step

	for _, r := range e.running {
		if !e.pool.Extend(r.KV, 1) {
			e.requeue(r) // defensive; ensureExtendable guarantees space
			continue
		}
		first := r.FirstTokenAt < 0
		r.EmitToken(e.clock)
		if e.cfg.Hooks.OnToken != nil {
			e.cfg.Hooks.OnToken(e.clock, r)
		}
		if first && e.rec != nil {
			e.rec.FirstToken(e.clock, r, e.obsPool, e.obsRep)
		}
		e.outputTokens++
	}
	// Fully chunked prompts join the running batch; their first token is
	// emitted on the next mixed iteration, like prefill-priority admission.
	e.running = append(e.running, finishedPrefills...)
	e.completeDone()
	e.observe(e.clock)
	e.iterationHook("mixed", dur, lanes+nChunked)
}

// requeue returns a request to the queue front after a failed extension.
func (e *Engine) requeue(r *request.Request) {
	if e.pool.Allocated(r.KV) {
		e.free(r)
	}
	for i, rr := range e.running {
		if rr == r {
			e.running = append(e.running[:i], e.running[i+1:]...)
			break
		}
	}
	r.State = request.Waiting
	r.Evictions++
	e.evictions++
	e.queue.PushFront(r)
	if e.cfg.Hooks.OnEvict != nil {
		e.cfg.Hooks.OnEvict(e.clock, r)
	}
	if e.rec != nil {
		e.rec.Evict(e.clock, r, e.obsPool, e.obsRep)
	}
}

// completeDone finishes every running request whose output is complete:
// memory is released and the actual output length feeds the history window.
func (e *Engine) completeDone() {
	kept := e.running[:0]
	for _, r := range e.running {
		if !r.Done() {
			kept = append(kept, r)
			continue
		}
		e.free(r)
		e.released = true
		r.Finish(e.clock)
		e.recordFinishedLength(r.Class, r.TrueOutputLen)
		e.finished = append(e.finished, r)
		if e.cfg.Hooks.OnFinish != nil {
			e.cfg.Hooks.OnFinish(e.clock, r)
		}
		if e.rec != nil {
			e.rec.Finish(e.clock, r, e.obsPool, e.obsRep)
		}
	}
	e.running = kept
}

// observe records occupancy and batch-size time series at time t.
func (e *Engine) observe(t float64) {
	capacity := float64(e.pool.CapacityTokens())
	e.memUtil.Observe(t, float64(e.usedTokens())/capacity)
	e.physUtil.Observe(t, float64(e.pool.PhysicalUsedTokens()+e.owedTokens())/capacity)
	e.batchSize.Observe(t, float64(len(e.running)+len(e.prefilling)+len(e.staticBatch)))
}

// iterationHook reports one executed iteration to the observers. batch is
// the number of requests that took part — decode lanes plus, on "mixed" and
// "chunked" iterations, the prompts that advanced a chunk — never a token
// count (chunk tokens are reported through Recorder.Chunk).
func (e *Engine) iterationHook(kind string, dur float64, batch int) {
	if e.cfg.Hooks.OnIteration != nil {
		e.cfg.Hooks.OnIteration(e.clock, Iteration{
			Kind: kind, Duration: dur, BatchSize: batch, KVTokens: e.usedTokens(),
		})
	}
	if e.rec != nil {
		// Cache evictions happen inside pool reclaim loops (allocation,
		// extension); surface the step's total as one event off the pool's
		// cumulative counter.
		if e.pool.PrefixCacheEnabled() {
			if d := e.pool.PrefixStats().EvictedBlocks - e.lastCacheEvict; d > 0 {
				e.rec.CacheEvent(e.clock, e.obsPool, e.obsRep, obs.CacheEvict, int(d)*e.pool.PrefixBlockTokens())
				e.lastCacheEvict += d
			}
		}
		kvBytes := int64(e.usedTokens()) * e.KVBytesPerToken()
		e.rec.Iteration(e.clock, e.obsPool, e.obsRep, kind, dur, batch, kvBytes, e.queue.Len())
	}
}
