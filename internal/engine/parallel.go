// Parallel-stepping support: the two engine-side primitives the cluster's
// sharded event loop (internal/cluster/parallel.go) builds on.
//
// The cluster executes batches of engine steps concurrently and must end up
// bit-identical to the single-threaded reference. Two properties make that
// possible:
//
//   - Effect deferral (EffectBuffer): everything a Step emits to the outside
//     world — hook callbacks and recorder events — is captured in order
//     instead of fired inline, then replayed on the coordinator goroutine in
//     the exact order the reference would have produced. Engine-internal
//     state (clock, queue, KV pool, batch) still mutates eagerly; only the
//     cluster-visible side effects are deferred.
//   - Effect floors (EffectFloor): a conservative lower bound on the
//     simulated time at which the *next* Step could first emit a
//     cluster-visible effect (a released request, a handoff, a failure —
//     anything that schedules further events or feeds shared cluster
//     state). Steps whose start times all lie below every batch member's
//     floor cannot influence one another, so they may run in any order —
//     including concurrently — without changing the result.
package engine

import (
	"math"

	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
)

// effectKind tags one deferred emission in an EffectBuffer. Hook and
// recorder emissions share one ordered log so replay reproduces the exact
// interleaving of the inline path (e.g. OnDrop fires before Recorder.Drop).
type effectKind uint8

const (
	efHookAdmit effectKind = iota
	efHookToken
	efHookFinish
	efHookEvict
	efHookDrop
	efHookFail
	efHookHandoff
	efHookIteration
	efRecAdmit
	efRecFirstToken
	efRecEvict
	efRecDrop
	efRecFail
	efRecFinish
	efRecIteration
	efRecCacheEvent
	efRecChunk
)

type effectItem struct {
	kind effectKind
	at   float64
	r    *request.Request
	// reqs is the OnAdmit scratch slice. Holding it by reference is safe:
	// the engine reuses the buffer only on its next Step, and the cluster
	// replays every buffer before stepping any engine again.
	reqs []*request.Request
	it   Iteration // efHookIteration
	// efRecIteration scalars; iterKind and batch double as the
	// efRecCacheEvent kind and token count.
	iterKind string
	dur      float64
	batch    int
	kvBytes  int64
	queueLen int
}

// EffectBuffer captures the externally visible effects of one engine Step —
// hook callbacks and recorder emissions, in firing order — for deferred
// replay on the cluster's coordinator goroutine. Installed once per engine
// via DeferEffects; one buffer per engine, reused across steps.
type EffectBuffer struct {
	hooks     Hooks        // the original callbacks, invoked at replay
	rec       obs.Recorder // the original recorder, invoked at replay
	pool, rep int
	items     []effectItem
}

// DeferEffects redirects this engine's hook and recorder emissions into a
// fresh EffectBuffer and returns it. Must be called after every hook is
// installed (hooks added later would fire inline, racing the worker pool)
// and before the first Step. The buffer's Replay must run — on the
// coordinator, in event-pop order — after each Step before the engine
// steps again.
func (e *Engine) DeferEffects() *EffectBuffer {
	b := &EffectBuffer{hooks: e.cfg.Hooks, rec: e.rec, pool: e.obsPool, rep: e.obsRep}
	h := &e.cfg.Hooks
	if b.hooks.OnAdmit != nil {
		h.OnAdmit = func(now float64, admitted []*request.Request) {
			b.items = append(b.items, effectItem{kind: efHookAdmit, at: now, reqs: admitted})
		}
	}
	if b.hooks.OnToken != nil {
		h.OnToken = func(now float64, r *request.Request) {
			b.items = append(b.items, effectItem{kind: efHookToken, at: now, r: r})
		}
	}
	if b.hooks.OnFinish != nil {
		h.OnFinish = func(now float64, r *request.Request) {
			b.items = append(b.items, effectItem{kind: efHookFinish, at: now, r: r})
		}
	}
	if b.hooks.OnEvict != nil {
		h.OnEvict = func(now float64, r *request.Request) {
			b.items = append(b.items, effectItem{kind: efHookEvict, at: now, r: r})
		}
	}
	if b.hooks.OnDrop != nil {
		h.OnDrop = func(now float64, r *request.Request) {
			b.items = append(b.items, effectItem{kind: efHookDrop, at: now, r: r})
		}
	}
	if b.hooks.OnFail != nil {
		h.OnFail = func(now float64, r *request.Request) {
			b.items = append(b.items, effectItem{kind: efHookFail, at: now, r: r})
		}
	}
	if b.hooks.OnHandoff != nil {
		h.OnHandoff = func(now float64, r *request.Request) {
			b.items = append(b.items, effectItem{kind: efHookHandoff, at: now, r: r})
		}
	}
	if b.hooks.OnIteration != nil {
		h.OnIteration = func(now float64, it Iteration) {
			b.items = append(b.items, effectItem{kind: efHookIteration, at: now, it: it})
		}
	}
	if e.rec != nil {
		e.rec = b
	}
	return b
}

// Replay fires the captured effects in their original order through the
// original hooks and recorder, then clears the buffer (capacity retained).
// Coordinator-only: replayed hooks may push cluster events.
func (b *EffectBuffer) Replay() {
	for i := range b.items {
		it := &b.items[i]
		switch it.kind {
		case efHookAdmit:
			b.hooks.OnAdmit(it.at, it.reqs)
		case efHookToken:
			b.hooks.OnToken(it.at, it.r)
		case efHookFinish:
			b.hooks.OnFinish(it.at, it.r)
		case efHookEvict:
			b.hooks.OnEvict(it.at, it.r)
		case efHookDrop:
			b.hooks.OnDrop(it.at, it.r)
		case efHookFail:
			b.hooks.OnFail(it.at, it.r)
		case efHookHandoff:
			b.hooks.OnHandoff(it.at, it.r)
		case efHookIteration:
			b.hooks.OnIteration(it.at, it.it)
		case efRecAdmit:
			b.rec.Admit(it.at, it.r, b.pool, b.rep)
		case efRecFirstToken:
			b.rec.FirstToken(it.at, it.r, b.pool, b.rep)
		case efRecEvict:
			b.rec.Evict(it.at, it.r, b.pool, b.rep)
		case efRecDrop:
			b.rec.Drop(it.at, it.r, b.pool, b.rep)
		case efRecFail:
			b.rec.Fail(it.at, it.r, b.pool, b.rep)
		case efRecFinish:
			b.rec.Finish(it.at, it.r, b.pool, b.rep)
		case efRecIteration:
			b.rec.Iteration(it.at, b.pool, b.rep, it.iterKind, it.dur, it.batch, it.kvBytes, it.queueLen)
		case efRecCacheEvent:
			b.rec.CacheEvent(it.at, b.pool, b.rep, it.iterKind, it.batch)
		case efRecChunk:
			b.rec.Chunk(it.at, it.r, b.pool, b.rep, it.batch, it.queueLen, int(it.kvBytes))
		}
		b.items[i] = effectItem{} // release request pointers
	}
	b.items = b.items[:0]
}

// EffectBuffer doubles as the engine's obs.Recorder while effects are
// deferred: the engine-side emission sites append to the ordered log. The
// cluster-side Recorder methods are never reached from inside a Step.
var _ obs.Recorder = (*EffectBuffer)(nil)

// Admit implements obs.Recorder (captured).
func (b *EffectBuffer) Admit(at float64, r *request.Request, pool, rep int) {
	b.items = append(b.items, effectItem{kind: efRecAdmit, at: at, r: r})
}

// FirstToken implements obs.Recorder (captured).
func (b *EffectBuffer) FirstToken(at float64, r *request.Request, pool, rep int) {
	b.items = append(b.items, effectItem{kind: efRecFirstToken, at: at, r: r})
}

// Evict implements obs.Recorder (captured).
func (b *EffectBuffer) Evict(at float64, r *request.Request, pool, rep int) {
	b.items = append(b.items, effectItem{kind: efRecEvict, at: at, r: r})
}

// Drop implements obs.Recorder (captured).
func (b *EffectBuffer) Drop(at float64, r *request.Request, pool, rep int) {
	b.items = append(b.items, effectItem{kind: efRecDrop, at: at, r: r})
}

// Fail implements obs.Recorder (captured).
func (b *EffectBuffer) Fail(at float64, r *request.Request, pool, rep int) {
	b.items = append(b.items, effectItem{kind: efRecFail, at: at, r: r})
}

// Finish implements obs.Recorder (captured).
func (b *EffectBuffer) Finish(at float64, r *request.Request, pool, rep int) {
	b.items = append(b.items, effectItem{kind: efRecFinish, at: at, r: r})
}

// Iteration implements obs.Recorder (captured).
func (b *EffectBuffer) Iteration(at float64, pool, rep int, kind string, dur float64, batch int, kvBytes int64, queueLen int) {
	b.items = append(b.items, effectItem{
		kind: efRecIteration, at: at,
		iterKind: kind, dur: dur, batch: batch, kvBytes: kvBytes, queueLen: queueLen,
	})
}

// CacheEvent implements obs.Recorder (captured).
func (b *EffectBuffer) CacheEvent(at float64, pool, rep int, kind string, tokens int) {
	b.items = append(b.items, effectItem{kind: efRecCacheEvent, at: at, iterKind: kind, batch: tokens})
}

// Chunk implements obs.Recorder (captured): tokens/done/total ride the
// batch, queueLen, and kvBytes scalars.
func (b *EffectBuffer) Chunk(at float64, r *request.Request, pool, rep int, tokens, done, total int) {
	b.items = append(b.items, effectItem{
		kind: efRecChunk, at: at, r: r, batch: tokens, queueLen: done, kvBytes: int64(total),
	})
}

// The cluster-side Recorder surface is unreachable from an engine Step; a
// call here means an emission site moved without updating the deferral.

// Arrive implements obs.Recorder (cluster-side; unreachable from a Step).
func (b *EffectBuffer) Arrive(float64, *request.Request) { panic("engine: Arrive inside a Step") }

// Hold implements obs.Recorder (cluster-side; unreachable from a Step).
func (b *EffectBuffer) Hold(float64, *request.Request, int) { panic("engine: Hold inside a Step") }

// Release implements obs.Recorder (cluster-side; unreachable from a Step).
func (b *EffectBuffer) Release(float64, *request.Request, int) {
	panic("engine: Release inside a Step")
}

// Place implements obs.Recorder (cluster-side; unreachable from a Step).
func (b *EffectBuffer) Place(float64, *request.Request, int, int, string) {
	panic("engine: Place inside a Step")
}

// Shed implements obs.Recorder (cluster-side; unreachable from a Step).
func (b *EffectBuffer) Shed(float64, *request.Request, string) { panic("engine: Shed inside a Step") }

// XferBook implements obs.Recorder (cluster-side; unreachable from a Step).
func (b *EffectBuffer) XferBook(float64, *request.Request, int, int, int, int, int64, float64, float64) {
	panic("engine: XferBook inside a Step")
}

// XferFail implements obs.Recorder (cluster-side; unreachable from a Step).
func (b *EffectBuffer) XferFail(float64, *request.Request, float64) {
	panic("engine: XferFail inside a Step")
}

// XferDeliver implements obs.Recorder (cluster-side; unreachable from a Step).
func (b *EffectBuffer) XferDeliver(float64, *request.Request, int, int) {
	panic("engine: XferDeliver inside a Step")
}

// Crash implements obs.Recorder (cluster-side; unreachable from a Step).
func (b *EffectBuffer) Crash(float64, int, int, int) { panic("engine: Crash inside a Step") }

// Orphan implements obs.Recorder (cluster-side; unreachable from a Step).
func (b *EffectBuffer) Orphan(float64, *request.Request) { panic("engine: Orphan inside a Step") }

// Recover implements obs.Recorder (cluster-side; unreachable from a Step).
func (b *EffectBuffer) Recover(float64, int, int) { panic("engine: Recover inside a Step") }

// PlanPoint implements obs.Recorder (cluster-side; unreachable from a Step).
func (b *EffectBuffer) PlanPoint(float64, int, int, int) { panic("engine: PlanPoint inside a Step") }

// EffectFloor returns a conservative lower bound on this engine's
// post-Step clock — the earliest simulated time at which the next Step's
// execution can become visible to the rest of the cluster.
//
// What must be bounded is exactly the post-step clock: everything a Step
// emits *during* its execution (hooks, recorder events, even failures at
// the unadvanced clock) is captured in the EffectBuffer and replayed in
// the step's own event-pop slot, so mid-step emission times never
// constrain batching. What does constrain it is what the step leaves in
// the event heap — its re-armed step event at the new clock, handoff
// bookings and admission retries at the step's end — because those pop
// before any later-timestamped step the batch might otherwise include,
// and the re-armed step can itself admit and emit at that very instant.
//
// Per regime (prefill-priority, started):
//
//   - pure decode over n running requests that cannot trigger an eviction
//     ends exactly at clock + DecodeTime(n, kv);
//   - an idle engine with only future arrivals silently jumps to the first
//     one — its re-armed step can go effectful right there;
//   - a fully drained engine's Step is a no-op and re-arms nothing: +Inf;
//   - an admitting iteration with a non-empty running batch ends no earlier
//     than the queue head's own prefill time if admission succeeds, and at
//     the decode bound if the scheduler refuses — the floor takes the min;
//   - with nothing running, a refused admission can retry, fail, or jump at
//     the unadvanced clock, so no guarantee holds.
//
// The bound must hold for every path the scheduler could take, so
// unanalyzed strategies (SplitFuse, StaticBatch) and edge paths (queue
// timeouts, eviction pressure, migrated zero-cost prefills) conservatively
// return the clock.
func (e *Engine) EffectFloor() float64 {
	if !e.started || e.cfg.Strategy != PrefillPriority || e.cfg.Chunked.Enabled {
		// The first Step may jump the clock to the first arrival and admit in
		// the same call; splitfuse/static/chunked iterations are not analyzed.
		return e.clock
	}
	if e.cfg.QueueTimeout > 0 && (e.queue.Len() > 0 || e.arrivals.Len() > 0) {
		return e.clock // dropExpired can reshape the queue at the unadvanced clock
	}
	queueDue := e.queue.Len() > 0 || (e.arrivals.Len() > 0 && e.arrivals[0].at <= e.clock)
	if !queueDue {
		if len(e.running) > 0 {
			return e.decodeFloor()
		}
		if e.arrivals.Len() > 0 {
			// Silent jump: the step only moves the clock to the first arrival,
			// but its re-armed successor can admit — and emit — at that time.
			return e.arrivals[0].at
		}
		return math.Inf(1) // fully drained: a no-op that re-arms nothing
	}
	if len(e.running) == 0 {
		// A refused admission with an empty batch retries or fails at the
		// unadvanced clock (or jumps and re-admits at an arrival time we
		// cannot cheaply bound): no guarantee.
		return e.clock
	}
	// Running batch plus due queue work: an admitting iteration fuses at
	// least the head, ending no earlier than the head's own prefill time
	// (zero if the head's KV migrates or swaps in); a refused admission
	// decodes instead. Either way the step ends at or after the smaller.
	head := e.headOfLine()
	if head == nil || head.Migrated || head.Swapped {
		return e.clock
	}
	// A prefix-cache hit can shrink the head's prefill to its uncached
	// suffix, so the bound must discount the largest hit its hashes could
	// possibly score. Exact when caching is off (no hashes, or BlockTokens
	// is 0 so nothing is discounted).
	prefill := head.Footprint() - len(head.PrefixHashes)*e.pool.PrefixBlockTokens()
	admitLB := e.clock + e.scaled(e.cfg.Perf.PrefillTime(prefill))
	if df := e.decodeFloor(); df < admitLB {
		return df
	}
	return admitLB
}

// decodeFloor bounds a possible decode iteration over the current running
// batch. When no eviction can trigger (every request can extend by one
// block without reclaiming memory) the duration is exact; under memory
// pressure an eviction cascade can shorten the iteration — or fail a lone
// request outright — so no guarantee holds.
func (e *Engine) decodeFloor() float64 {
	n := len(e.running)
	if e.pool.FreeBlocks()-e.owedTokens() < n {
		return e.clock
	}
	return e.clock + e.scaled(e.cfg.Perf.DecodeTime(n, e.usedTokens()+n))
}

// headOfLine returns the request the next admission pass would consider
// first: the queue head, or — when the queue is empty but arrivals are due —
// the earliest due arrival (the first moveArrivals will enqueue).
func (e *Engine) headOfLine() *request.Request {
	if e.queue.Len() > 0 {
		return e.queue.Front()
	}
	if e.arrivals.Len() > 0 && e.arrivals[0].at <= e.clock {
		return e.arrivals[0].r
	}
	return nil
}

// Scheduler exposes the engine's admission scheduler instance so the
// cluster's parallel mode can reject configurations that share one mutable
// scheduler across concurrently stepped replicas.
func (e *Engine) Scheduler() interface{} { return e.sched }
