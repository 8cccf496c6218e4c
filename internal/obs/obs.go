// Package obs is the event-sourced observability layer: an optional
// Recorder the engine, the cluster (routing, admission, planner, faults),
// and the KV link thread their lifecycle decisions through.
//
// The layer is a strict observer. It samples state at execution points the
// simulator already visits — it never pushes events onto the cluster heap,
// never draws randomness, and never feeds anything back into a decision —
// so a recorder-enabled run makes bit-identical decisions to a disabled
// one (pinned by TestFeatureMatrix's traced ≡ untraced check).
// When disabled the abstraction costs nothing: every emission site guards
// on a nil Recorder, keeping the hot paths at 0 allocs/op.
//
// The concrete Collector assembles the event stream into three artifacts:
//
//   - per-request spans with an exact TTFT decomposition
//     (hold + queue + prefill + wire + outage = TTFT, by construction);
//   - interval rollup time series (queue depths, batch sizes, KV bytes,
//     shed/crash/retry counters, planner targets vs actuals);
//   - a Chrome/Perfetto trace (replicas as tracks, requests as flows).
package obs

import "github.com/lightllm-go/lightllm/internal/request"

// Shed locations, mirroring the cluster's internal shed sites. Kept as
// strings so the span CSV and the audit report need no decoder ring.
const (
	// ShedFront: refused at the cluster front before any engine saw the
	// request.
	ShedFront = "front"
	// ShedBoundary: refused at the prefill→transfer boundary, after prefill
	// ran but before KV-link bandwidth was committed.
	ShedBoundary = "boundary"
	// ShedFlush: still held by admission control when the run ended.
	ShedFlush = "flush"
)

// CacheEvent kinds, mirroring the engine's prefix-cache emission sites.
const (
	// CacheHit: prompt tokens served by resident prefix blocks at admission.
	CacheHit = "hit"
	// CacheMiss: prompt tokens the prefill had to encode (cache-enabled
	// admissions only; the hit rate is hit/(hit+miss)).
	CacheMiss = "miss"
	// CacheRestore: prompt tokens restored from the host offload store.
	CacheRestore = "restore"
	// CacheEvict: cached tokens reclaimed from resident blocks for memory.
	CacheEvict = "evict"
)

// Recorder receives lifecycle events from the simulator. All methods are
// called single-threaded from the cluster event loop (or the engine's step
// loop) with `at` in simulated seconds; implementations must not mutate the
// passed request. A nil Recorder disables the layer entirely — emission
// sites guard, so implementations never see nil receivers.
type Recorder interface {
	// Arrive: the request entered the cluster front. Fires again if a fault
	// recovery re-enters the request (the collector reopens its TTFT).
	Arrive(at float64, r *request.Request)
	// Hold: admission control queued the request in the deadline heap
	// instead of placing it; held is the heap depth after the push.
	Hold(at float64, r *request.Request, held int)
	// Release: a capacity event popped the request off the admission heap;
	// held is the heap depth after the pop.
	Release(at float64, r *request.Request, held int)
	// Place: the router bound the request to a replica (flavor is the
	// replica's hardware flavor name, "" for a flavorless pool).
	Place(at float64, r *request.Request, pool, rep int, flavor string)
	// Shed: admission control refused the request terminally. where is one
	// of ShedFront, ShedBoundary, ShedFlush.
	Shed(at float64, r *request.Request, where string)
	// Admit: an engine moved the request from its queue into the running
	// batch (first admissions close the queue stage; re-admissions of
	// already-streaming requests only update identity).
	Admit(at float64, r *request.Request, pool, rep int)
	// FirstToken: the request's first output token became visible on this
	// engine (prefill completion). On a prefill-only engine the token is
	// not user-visible yet — the later XferDeliver reopens the clock.
	FirstToken(at float64, r *request.Request, pool, rep int)
	// Evict: the engine pushed the request back to its queue (memory
	// pressure or scheduler preemption).
	Evict(at float64, r *request.Request, pool, rep int)
	// Drop: the request abandoned the engine queue past its timeout.
	Drop(at float64, r *request.Request, pool, rep int)
	// Fail: the engine declared the request unservable.
	Fail(at float64, r *request.Request, pool, rep int)
	// Finish: every output token delivered.
	Finish(at float64, r *request.Request, pool, rep int)
	// XferBook: a KV handoff transfer was booked on the link. start/done
	// bound the wire occupancy (after any lane queueing); the destination
	// may still change on a retry.
	XferBook(at float64, r *request.Request, fromPool, fromRep, toPool, toRep int, bytes int64, start, done float64)
	// XferFail: a booked delivery was destroyed by a link fault; the
	// transfer will retry no earlier than retryAt (or fall back to
	// re-prefill, which surfaces as a later Arrive).
	XferFail(at float64, r *request.Request, retryAt float64)
	// XferDeliver: the KV transfer landed on the decode side — the
	// user-visible first token for a disaggregated request.
	XferDeliver(at float64, r *request.Request, pool, rep int)
	// Crash: a replica died, orphaning `orphans` in-flight requests.
	Crash(at float64, pool, rep int, orphans int)
	// Orphan: this request's progress died with a crashed replica.
	Orphan(at float64, r *request.Request)
	// Recover: a crashed replica came back.
	Recover(at float64, pool, rep int)
	// Iteration: one engine step (kind "prefill", "decode", "chunked" or
	// "static") that started at at-dur and ended at at, with its running
	// batch size, resident KV bytes after the step, and queue depth after
	// the step.
	Iteration(at float64, pool, rep int, kind string, dur float64, batch int, kvBytes int64, queueLen int)
	// PlanPoint: one planner evaluation — the replica target it chose and
	// the active count after applying it.
	PlanPoint(at float64, pool, target, active int)
	// CacheEvent: a prefix-cache accounting event on a replica — kind is one
	// of CacheHit, CacheMiss, CacheRestore, CacheEvict, and tokens is the
	// event's token count. Never fires when prefix caching is disabled.
	CacheEvent(at float64, pool, rep int, kind string, tokens int)
	// Chunk: one prefill chunk of `tokens` prompt tokens landed for the
	// request at the end of a chunked iteration; done/total is the chunk
	// cursor after the chunk against the prefill target. Never fires when
	// chunked prefill is disabled.
	Chunk(at float64, r *request.Request, pool, rep int, tokens, done, total int)
}
