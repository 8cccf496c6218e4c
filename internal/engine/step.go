package engine

import (
	"fmt"
	"math"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
)

// Step executes one engine iteration and returns false when the engine is
// fully drained (no queue, no batch, no future arrivals).
func (e *Engine) Step() bool {
	if e.coast() {
		return true
	}
	e.settle()
	if e.lastStep != StepPureDecode {
		e.epoch++ // the batch did more than decode since the last round
	}
	e.released = false
	e.lastStep = StepOther
	e.minLeft = 0
	if e.Idle() {
		return false
	}
	if !e.started {
		e.started = true
		if e.arrivals.Len() > 0 && e.arrivals.Top().at > e.clock {
			e.clock = e.arrivals.Top().at
		}
		e.startClock = e.clock
		e.memUtil.Start(e.clock)
		e.physUtil.Start(e.clock)
		e.batchSize.Start(e.clock)
	}
	e.moveArrivals()
	e.dropExpired()

	if e.cfg.StaticBatchSize > 0 {
		return e.stepStatic()
	}

	var admitted []*request.Request
	if e.queue.Len() > 0 {
		admitted = e.admit()
		if len(admitted) == 0 && len(e.running)+len(e.prefilling) == 0 {
			admitted = e.admitHead()
			if admitted == nil {
				return true
			}
		}
	}
	switch {
	case e.cfg.Chunked.Enabled:
		e.enqueueChunked(admitted)
		if len(e.running)+len(e.prefilling) > 0 {
			e.runChunked()
			return true
		}
	case len(admitted) > 0:
		e.runPrefill(admitted)
		return true
	case len(e.running) > 0:
		e.runDecode()
		return true
	}

	// Nothing is running and nothing was admitted.
	if e.arrivals.Len() > 0 {
		next := e.arrivals.Top().at
		if next > e.clock {
			e.observe(next) // idle gap: occupancy holds (zero) until arrival
			e.clock = next
		}
		e.moveArrivals()
		return true
	}
	return false
}

// coast takes a decode step that touches only the requests joining or
// leaving the batch, and reports whether it did. It is chosen per step from
// what the engine can observe; each term of the condition removes one thing
// the per-token step (runDecode) might do besides:
//
//   - minLeft > owed: the last Step that did not coast was a decode step or a
//     fused prefill (runDecode, runPrefill), which settled the batch with at
//     least minLeft tokens left to each request — chunked and static
//     iterations never set minLeft — and no request has emitted its last
//     token since; one that emits it on this step (owed+1 == minLeft) settles
//     alone (finishCoasted);
//   - no token hook: nobody is told of tokens one by one;
//   - block size 1 and a physically free block for every owed token and this
//     step's: each token is one block, nothing is evicted, and no cached
//     prefix block is reclaimed to make room (AvailableBlocks would count
//     those as free);
//   - no admission round, or one that admits nothing (refuse): a refused
//     round changes nothing the decode step reads.
//
// What remains is engine-wide — the step's duration priced on the KV the
// batch would hold, the clock, the counters, the occupancy series and the
// iteration observers, all read off the owed-adjusted pool numbers — and the
// requests that change: the finishers (finishCoasted) and, on the first
// decode step after a prefill, the newcomers' first tokens (stampAll).
func (e *Engine) coast() bool {
	n := len(e.running)
	if e.owed >= e.minLeft || !e.coasts() || (e.owed+1)*n > e.pool.FreeBlocks() {
		return false
	}
	e.pureDecode()
	if e.roundDue() && !e.refuse() {
		return false
	}
	e.coastStep(n)
	return true
}

// coasts reports whether the engine may coast at all: no token hook, so
// nobody is told of tokens one by one, and block size 1, so each owed token
// is one block.
func (e *Engine) coasts() bool {
	return len(e.hooks.token) == 0 && e.pool.BlockSize() == 1
}

// pureDecode opens coasted steps — coast before its round, CoastUntil before
// its run: each releases nothing and, unless a request finishes on it, is a
// pure decode step (LastStep). The first after a Step that was not one moves
// the epoch, as Step does before its round.
func (e *Engine) pureDecode() {
	if e.lastStep != StepPureDecode {
		e.epoch++
		e.lastStep = StepPureDecode
	}
	e.released = false
}

// coastStep takes one coasted decode step of an n-request batch: everything
// coast does once it has chosen to.
func (e *Engine) coastStep(n int) {
	prev := e.clock
	dur := e.scaled(e.cfg.Perf.DecodeTime(n, e.usedTokens()+n))
	e.clock += dur
	e.res.DecodeSteps++
	e.res.CoastedSteps++
	e.res.OutputTokens += int64(n)
	e.owed++
	if e.prefilled {
		e.stampAll()
	} else if gap := e.clock - prev; gap > e.owedGap {
		// What EmitToken would measure: every request last emitted at prev.
		e.owedGap = gap
	}
	if e.owed == e.minLeft {
		e.finishCoasted()
	}
	e.observe(e.clock)
	e.iterationHook("decode", dur, n)
}

// stampAll gives every running request the timing of the token it takes on
// the coasted step just taken, the first decode step after a prefill, as
// EmitToken would: a newcomer's FirstTokenAt and the recorder's first-token
// event, any other request's gap since its own last token, which spans the
// prefill. It is the step's first owed token (the prefill's Step settled the
// batch), so owedGap stays 0 and the later steps' gaps are clock advances
// again.
func (e *Engine) stampAll() {
	for _, r := range e.running {
		first := r.FirstTokenAt < 0
		r.Stamp(e.clock, e.clock-r.LastEmitAt)
		if first && e.rec != nil {
			e.rec.FirstToken(e.clock, r, e.obsPool, e.obsRep)
		}
	}
	e.prefilled = false
}

// finishCoasted ends the requests that emitted their last token on the
// coasted step just taken, writing to no other request: the pool's peaks
// first take every owed token (the per-token step grows the whole batch
// before it frees anyone), then the finishers leave the batch, are settled
// alone, and are freed and finished in batch order. The survivors keep
// owing; minLeft becomes theirs.
func (e *Engine) finishCoasted() {
	e.pool.NotePeakWith(e.owed * len(e.running))
	done, minLeft := e.sweepDone()
	e.settleAll(done)
	e.minLeft = minLeft
	if len(e.running) == 0 {
		e.clearOwed() // nobody is left to owe
	}
	e.release(done)
	e.lastStep = StepOther
}

// roundDue reports whether the next Step holds an admission round: a request
// waits in the queue or an arrival has fallen due.
func (e *Engine) roundDue() bool {
	return e.queue.Len() > 0 || e.arrivals.Len() > 0 && e.arrivals.Top().at <= e.clock
}

// refuse holds the admission round of a step that may otherwise coast, as
// the per-token Step would hold it, and reports whether it admitted nothing.
// It queues the due arrivals; a queued request past QueueTimeout sends the
// step down the per-token path, where dropExpired and its observers run.
// Otherwise a scheduler that refuses the round as it refused an earlier one
// of the Epoch says so in O(1) (refusesAgain). Failing that, the running
// requests get their owed tokens (handOut) and decide asks the scheduler. An
// admission is kept in decided for admit, so the scheduler is asked once per
// step either way and a sampling scheduler draws from its generator exactly
// as on the per-token path.
func (e *Engine) refuse() bool {
	e.moveArrivals()
	for i := 0; i < e.queue.Len(); i++ {
		if e.expired(e.queue.At(i)) {
			return false
		}
	}
	if e.refusesAgain() {
		return true
	}
	e.handOut()
	if k := e.decide(); k > 0 {
		e.decided = k
		return false
	}
	return true
}

// refusesAgain asks the scheduler's RefusesAgain, when it has one, about the
// round refuse holds, without walking the batch: the Epoch, the queue's head,
// the batch's and the queue's lengths, the window, the capacity, and the
// Generated the lead request would show once handOut has given it the owed
// tokens it has not had (owed − handed). A yes leaves the batch owing them,
// the queue uncopied and no View built: settle hands them out later, as it
// would have. A coasting engine chunks nothing, so prefilling is empty and
// Running is the batch decide would show.
func (e *Engine) refusesAgain() bool {
	if e.refuser == nil || e.queue.Len() == 0 || len(e.prefilling) > 0 {
		return false
	}
	lead := 0
	if len(e.running) > 0 {
		lead = e.running[0].Generated + e.owed - e.handed
	}
	return e.refuser.RefusesAgain(core.RepeatRound{
		Epoch: e.epoch, Head: e.queue.Front(), Running: len(e.running), Queued: e.queue.Len(),
		Lead: lead, History: e.history, CapacityTokens: e.pool.CapacityTokens(),
	})
}

// CoastEnd returns the clock at which the first Step that holds an admission
// round, releases a request or does not coast starts, assuming nothing outside
// the engine touches it meanwhile: the current clock when the next Step is
// such a step, else the end of the run of coasted steps it begins. Only the
// clock moves inside such a run, so the run ends at the first of: a request
// at its last token, the last free block, an arrival falling due (coastRun).
// The step on which a request finishes coasts too, but ends the run: its
// finish is an event for the caller. Each step is priced as coast prices it —
// the same scaled(DecodeTime(n, used+owed·n+n)) added in the same order — so
// the value is exactly the clock that many Steps would reach. The cluster
// schedules one event here instead of one per step, and so never leaves a
// round or a finish to a catch-up.
func (e *Engine) CoastEnd() float64 {
	k, due := e.coastRun()
	n := len(e.running)
	clock, used := e.clock, e.usedTokens()
	for ; k > 0 && clock < due; k-- {
		used += n
		clock += e.scaled(e.cfg.Perf.DecodeTime(n, used))
	}
	return clock
}

// CoastUntil takes coasted steps while the next one starts before t — or at
// t, when inclusive — and reports how many it took. It stops early where the
// run does (CoastEnd): it never takes a step that would not coast, nor one
// that holds an admission round, which is the Step's at the run's end. This
// is how the cluster catches a replica up to an event that lands inside its
// run. The run's bound is taken once: a coasted step moves only the clock and
// the owed count, and coastRun's k already counts the owed tokens.
func (e *Engine) CoastUntil(t float64, inclusive bool) int {
	k, due := e.coastRun()
	n := len(e.running)
	taken := 0
	for ; taken < k && e.clock < due && (e.clock < t || inclusive && e.clock == t); taken++ {
		if taken == 0 {
			e.pureDecode()
		}
		e.coastStep(n)
	}
	return taken
}

// coastRun bounds the run of coasted steps the next Step begins: at most k
// steps, each starting before due, the next arrival's time (+Inf with none).
// k is at most 0 when the next Step holds a round, finishes a request or
// cannot coast. It is coast's terms solved for the number of steps: step j
// (owing owed+j tokens before it) coasts and finishes nobody while
// owed+j+1 < minLeft and (owed+j+1)·n ≤ FreeBlocks, and holds no round while
// the queue is empty and no arrival is due.
func (e *Engine) coastRun() (k int, due float64) {
	n := len(e.running)
	if n == 0 || e.queue.Len() > 0 || !e.coasts() {
		return 0, 0
	}
	k = min(e.minLeft-e.owed-1, e.pool.FreeBlocks()/n-e.owed)
	due = math.Inf(1)
	if e.arrivals.Len() > 0 {
		due = e.arrivals.Top().at
	}
	return k, due
}

// settle hands every running request the tokens coasted steps owe it — KV
// growth, the Generated a round's handOut has not moved yet, and the timing
// (LastEmitAt, MaxGap) — in one pass, leaving the engine as the per-token path
// would have. The pool's usage only grew since the last settle or finish
// (finishCoasted notes the peak before it frees), so its peaks land on the
// values they would have reached token by token.
func (e *Engine) settle() {
	k := e.owed
	if k == 0 {
		return
	}
	e.settleAll(e.running)
	e.minLeft -= k
	e.clearOwed()
}

// settleAll settles the requests rs, each of which owes every owed token: KV,
// Generated and the timing of the last at the clock, owedGap the largest of
// their gaps over the owed steps. Every one of them has had its first token
// (stampAll) and none more tokens than its output holds.
func (e *Engine) settleAll(rs []*request.Request) {
	k, emit := e.owed, e.owed-e.handed
	for _, r := range rs {
		if !e.pool.Extend(r.KV, k) {
			noRoom(r, k)
		}
		r.Generated += emit
		if r.Generated > r.TrueOutputLen || r.FirstTokenAt < 0 {
			misowed(r)
		}
		r.Stamp(e.clock, e.owedGap)
	}
}

// clearOwed forgets the owed tokens once every running request has them.
func (e *Engine) clearOwed() {
	e.owed, e.handed, e.owedGap = 0, 0, 0
}

// handOut moves every running request's Generated past the owed tokens it
// has not had yet, the count a scheduler reads (with KVLanded); the pool's
// growth and the timing stay owed — a maximum taken at settle gives the same
// bits as one taken now. decide counts the pool's owed growth for it.
func (e *Engine) handOut() {
	k := e.owed - e.handed
	if k == 0 {
		return
	}
	for _, r := range e.running {
		r.Generated += k
		if r.Done() { // coast keeps every running request short of its last token
			misowed(r)
		}
	}
	e.handed = e.owed
}

// noRoom panics for a running request the pool could not grow by k tokens.
// Every caller made room first (ensureExtendable, or coast's free-block term),
// so only a bug gets here.
func noRoom(r *request.Request, k int) {
	panic(fmt.Sprintf("engine: no room for %d tokens of request %d", k, r.ID))
}

// misowed panics for a request the owed tokens took past its output, or
// settled before its first token's timing: only a bug in the coasting
// bookkeeping gets here.
func misowed(r *request.Request) {
	panic(fmt.Sprintf("engine: request %d handed %d of %d tokens (first token at %v)",
		r.ID, r.Generated, r.TrueOutputLen, r.FirstTokenAt))
}

// owedTokens is how many tokens the pool's usage trails the engine by — and
// how many blocks: the block size is 1 whenever any are owed.
func (e *Engine) owedTokens() int { return e.owed * len(e.running) }

// usedTokens is the pool's logical usage with the owed tokens counted: what
// UsedTokens would read had every coasted step extended the batch.
func (e *Engine) usedTokens() int { return e.pool.UsedTokens() + e.owedTokens() }

// moveArrivals transfers due arrivals into the FCFS queue.
func (e *Engine) moveArrivals() {
	for e.arrivals.Len() > 0 && e.arrivals.Top().at <= e.clock {
		e.queue.PushBack(e.arrivals.Pop().r)
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
		func(r *request.Request) bool { return !e.expired(r) },
		func(r *request.Request) {
			r.MarkDropped(e.clock)
			e.leave(r, &e.res.TimedOut)
		},
	)
}

// expired reports whether a queued request has waited past QueueTimeout
// without a token: dropExpired abandons it.
func (e *Engine) expired(r *request.Request) bool {
	return e.cfg.QueueTimeout > 0 && r.FirstTokenAt < 0 && e.clock-r.ArrivalTime > e.cfg.QueueTimeout
}

// decide builds the scheduler's view of the engine and asks it how long a
// FCFS prefix of the queue to admit. The view counts the pool's owed growth,
// so every scheduler sees the numbers a settled engine shows it; the running
// requests must have had their owed tokens (handOut). Step asks at most once:
// admit takes an answer coast already got (decided) instead of asking again.
func (e *Engine) decide() int {
	batchView := e.running
	if len(e.prefilling) > 0 {
		e.batchScratch = append(append(e.batchScratch[:0], e.running...), e.prefilling...)
		batchView = e.batchScratch
	}
	e.queueScratch = e.queue.AppendTo(e.queueScratch[:0])
	// A fresh View: PredictedPeak starts at 0 every round.
	e.viewScratch = core.View{
		CapacityTokens: e.pool.CapacityTokens(),
		UsedTokens:     e.usedTokens(),
		FreeTokens:     e.pool.FreeTokens() - e.owedTokens(),
		Running:        batchView,
		History:        e.history,
		Epoch:          e.epoch,
		Unobserved:     len(e.hooks.admit) == 0,
	}
	return e.sched.Admit(&e.viewScratch, e.queueScratch)
}

// admit asks the scheduler for a FCFS prefix, allocates prompt memory, and
// removes the admitted requests from the queue. All slices it hands out
// (the scheduler's view, the admit hooks' round, the returned admissions)
// are per-step scratch buffers: valid until the next Step, never retained
// by the engine, and must not be retained by hooks or schedulers. Reusing
// them keeps a steady-state Step free of heap allocations.
func (e *Engine) admit() []*request.Request {
	n := e.decided
	e.decided = 0
	if n == 0 {
		n = e.decide()
	}
	if n <= 0 {
		return nil
	}
	asked := n // the prefix the scheduler's PredictedPeak priced
	if e.cfg.MaxPrefillTokens > 0 && !e.cfg.Chunked.Enabled {
		// Chunked prefill repurposes MaxPrefillTokens as the per-iteration
		// chunk budget instead of an admission trim: admissions reserve KV
		// immediately and their prompts land chunk by chunk.
		// Trim the admitted prefix to the longest one whose footprints fit
		// the prefill token budget, walking only the prefix the scheduler
		// priced. At least one request is always prefilled so oversized
		// prompts still make progress.
		budget := e.cfg.MaxPrefillTokens
		for i := 0; i < n; i++ {
			if budget -= e.queue.At(i).Footprint(); budget < 0 {
				n = max(i, 1)
				break
			}
		}
	}
	return e.take(n, asked)
}

// admitHead admits the queue head alone, past the scheduler, for an idle
// engine whose scheduler refused it: with nothing running or chunking no
// memory can ever free, so a refusal could only end in failing the head.
// It fails the head instead, and returns nil, when the pool cannot allocate
// its footprint. The admit hooks see a round that is not Whole and carries
// no PredictedPeak: the scheduler priced no batch.
func (e *Engine) admitHead() []*request.Request {
	e.viewScratch.PredictedPeak = 0
	if admitted := e.take(1, 0); admitted != nil {
		return admitted
	}
	e.failRequest(e.queue.PopFront())
	return nil
}

// take admits up to n requests off the queue head, stopping at the first the
// pool cannot allocate, and does the round's bookkeeping: the counters, the
// admit hooks (Whole when it took the asked prefix the scheduler priced) and
// the recorder. It returns the admissions, nil for none.
func (e *Engine) take(n, asked int) []*request.Request {
	admitted := e.admitScratch[:0]
	for i := 0; i < n; i++ {
		r := e.queue.Front()
		if !e.allocateFor(r) {
			break // block fragmentation: physically infeasible, stop here
		}
		e.queue.PopFront()
		r.Admissions++
		e.res.Admissions++
		// A migrated first admission encodes nothing here: the prompt was
		// processed on the prefill engine and the KV arrived over the link,
		// so neither input nor recompute tokens accrue to this engine.
		if !r.Migrated {
			e.res.InputTokens += int64(r.InputLen)
			if r.Generated > 0 && !r.Swapped {
				e.res.RecomputeTokens += int64(r.Footprint() - r.CachedTokens - r.RestoredTokens)
			}
		}
		admitted = append(admitted, r)
	}
	e.admitScratch = admitted
	if len(admitted) == 0 {
		return nil
	}
	for _, f := range e.hooks.admit {
		f(e.clock, core.AdmitRound{
			View: &e.viewScratch, Queued: len(e.queueScratch), Admitted: admitted, Whole: len(admitted) == asked,
		})
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
	e.res.CacheHitTokens += int64(hit)
	e.res.CacheRestoredTokens += int64(restored)
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
	victim.Evictions++
	if e.cfg.Eviction == Swap {
		victim.Swapped = true // KV parked in host memory
	}
	e.res.Evictions++
	e.queue.PushFront(victim)
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
//
// On an engine that keeps what it prefills the step is StepAdmitOnly unless a
// request left earlier in it, or an admission took a swap-in or a
// prefix-cache stamp (hit or restore) that its waiting entry did not carry.
func (e *Engine) runPrefill(admitted []*request.Request) {
	promptTokens := 0
	swapTokens := 0
	restoreTokens := 0
	stamped := false
	for _, r := range admitted {
		stamped = stamped || r.Swapped || r.CachedTokens > 0 || r.RestoredTokens > 0
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
			e.res.SwapInTokens += int64(r.Footprint())
			continue
		}
		// Prefix-cache hits are prompt tokens this iteration never encodes;
		// offload restores replace their compute with host-link wire time.
		promptTokens += r.Footprint() - r.CachedTokens - r.RestoredTokens
		restoreTokens += r.RestoredTokens
	}
	dur := e.scaled(e.cfg.Perf.PrefillTime(promptTokens) + e.cfg.Perf.SwapTime(swapTokens) +
		e.cfg.Perf.SwapTime(restoreTokens))
	e.res.PrefillComputeTokens += int64(promptTokens)
	e.clock += dur
	e.res.PrefillIters++
	if e.cfg.Role == RolePrefillOnly {
		e.completePrefills(admitted)
		e.observe(e.clock)
		e.iterationHook("prefill", dur, len(admitted))
		return
	}
	e.running = append(e.running, admitted...)
	if !stamped && !e.released {
		e.lastStep = StepAdmitOnly
	}
	if e.coasts() {
		// The batch is settled here, and each request has a token left: the
		// next decode step may coast, stamping the whole batch (stampAll).
		e.prefilled = true
		e.minLeft = math.MaxInt
		for _, r := range e.running {
			e.minLeft = min(e.minLeft, r.RemainingTrue())
		}
	}
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
		e.emit(r)
		e.free(r)
		if r.Done() {
			e.finish(r)
			continue
		}
		r.PrefillDoneAt = e.clock
		e.leave(r, &e.res.HandedOff)
	}
}

// emit hands r its next token at the engine clock — the one place a token of
// a per-token step reaches a request, its observers and the output counter.
// A coasted step counts its tokens for the whole batch and hands them over in
// bulk (handOut, settle), its first tokens' timing and recorder events
// through stampAll.
func (e *Engine) emit(r *request.Request) {
	first := r.FirstTokenAt < 0
	r.EmitToken(e.clock)
	for _, f := range e.hooks.token {
		f(e.clock, r)
	}
	if first && e.rec != nil {
		e.rec.FirstToken(e.clock, r, e.obsPool, e.obsRep)
	}
	e.res.OutputTokens++
}

// finish completes r at the engine clock — the one place a request finishes:
// its actual output length feeds the history window and its observers hear of
// it. Freeing its KV is the caller's, since a static batch keeps finished
// lanes allocated until the whole batch drains.
func (e *Engine) finish(r *request.Request) {
	r.Finish(e.clock)
	e.history.Add(r.TrueOutputLen)
	e.leave(r, &e.res.Finished)
}

// decodeRunning gives every running request one token, after ensureExtendable
// made room for it.
func (e *Engine) decodeRunning() {
	for _, r := range e.running {
		if !e.pool.Extend(r.KV, 1) {
			noRoom(r, 1)
		}
		e.emit(r)
	}
}

// runDecode executes one decode step: every running request emits one token.
func (e *Engine) runDecode() {
	batch := len(e.running)
	e.prefilled = false // every request the step keeps emits
	e.ensureExtendable(e.running)
	if len(e.running) == 0 {
		return
	}
	n := len(e.running)
	kvTokens := e.pool.UsedTokens() + n
	dur := e.scaled(e.cfg.Perf.DecodeTime(n, kvTokens))
	e.clock += dur
	e.res.DecodeSteps++
	e.decodeRunning()
	e.minLeft = e.completeDone() // the batch coast may start from
	if e.keptBatch(batch) {
		e.lastStep = StepPureDecode
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

// dropLanded removes from the chunk pipeline the prompts with nothing left to
// encode, keeping the rest in order.
func (e *Engine) dropLanded() {
	remaining := e.prefilling[:0]
	for _, r := range e.prefilling {
		if r.PrefillRemaining() > 0 {
			remaining = append(remaining, r)
		}
	}
	e.prefilling = remaining
}

// completeDone finishes and frees every running request whose output is
// complete, and returns the fewest tokens a request left running has to emit
// (0 when none is left).
func (e *Engine) completeDone() int {
	done, minLeft := e.sweepDone()
	e.release(done)
	return minLeft
}

// sweepDone takes out of the batch, in batch order, the requests that have
// emitted their last token once the owed ones count, and returns them with
// the fewest tokens a request left running had when the batch was last
// settled (0 when none is left). handOut may have moved Generated past that
// settle by handed tokens. The finishers go in admitScratch: the step's
// admissions, if any, have joined the batch or the chunk pipeline by now.
func (e *Engine) sweepDone() (done []*request.Request, minLeft int) {
	done, minLeft = e.admitScratch[:0], math.MaxInt
	kept := e.running[:0]
	for _, r := range e.running {
		if left := r.TrueOutputLen - r.Generated + e.handed; left > e.owed {
			kept = append(kept, r)
			minLeft = min(minLeft, left)
			continue
		}
		done = append(done, r)
	}
	e.running = kept
	if len(kept) == 0 {
		minLeft = 0
	}
	return done, minLeft
}

// release frees and finishes the requests sweepDone took out of the batch, in
// order; an exit hook that reads the batch sees the survivors only.
func (e *Engine) release(done []*request.Request) {
	for _, r := range done {
		e.free(r)
		e.finish(r)
	}
	clear(done)
	e.admitScratch = done[:0]
}

// observe records occupancy and batch-size time series at time t.
func (e *Engine) observe(t float64) {
	capacity := float64(e.pool.CapacityTokens())
	e.memUtil.Observe(t, float64(e.usedTokens())/capacity)
	e.physUtil.Observe(t, float64(e.pool.PhysicalUsedTokens()+e.owedTokens())/capacity)
	e.batchSize.Observe(t, float64(len(e.running)+len(e.prefilling)))
}

// iterationHook reports one executed iteration to the observers. batch is
// the number of requests that took part — decode lanes plus, on "chunked"
// iterations, the prompts that advanced a chunk — never a token
// count (chunk tokens are reported through Recorder.Chunk).
func (e *Engine) iterationHook(kind string, dur float64, batch int) {
	for _, f := range e.hooks.iteration {
		f(e.clock, Iteration{Kind: kind, Duration: dur, BatchSize: batch, KVTokens: e.usedTokens()})
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
