// Package request defines the request lifecycle the serving engine and the
// schedulers operate on, together with per-request SLA bookkeeping (time to
// first token, per-output-token gaps).
//
// A request arrives with a prompt of InputLen tokens, a cap of MaxNewTokens,
// and a ground-truth output length TrueOutputLen that is *hidden from every
// scheduler except the oracle* — it models the moment the LLM emits EOS.
// The request's KV footprint at any instant is InputLen + Generated tokens.
package request

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/kv"
)

// State is a request's lifecycle phase.
type State int

const (
	// Waiting: in the queue (newly arrived or re-queued after eviction).
	Waiting State = iota
	// Running: in the running batch, holding KV memory.
	Running
	// Finished: all output tokens delivered; memory released.
	Finished
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Waiting:
		return "waiting"
	case Running:
		return "running"
	case Finished:
		return "finished"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Outcome is a request's terminal disposition. State tracks where a request
// sits inside one engine (queue vs batch); Outcome tracks how its life ends
// across the whole cluster — exactly one terminal outcome per request, which
// is the conservation law the fleet tests pin: every arrival ends exactly
// once in {completed, shed, dropped, failed}.
type Outcome int

const (
	// OutcomePending: still in flight (or never served before the run ended).
	OutcomePending Outcome = iota
	// OutcomeCompleted: every output token delivered.
	OutcomeCompleted
	// OutcomeShed: refused by cluster-front admission control — the request's
	// remaining TTFT budget could not cover its predicted service floor, so
	// no further capacity (KV link bandwidth, decode slots) was spent on it.
	OutcomeShed
	// OutcomeDropped: abandoned by an SLA-aware client after waiting in an
	// engine queue past the queue timeout.
	OutcomeDropped
	// OutcomeFailed: unservable by the engine (e.g. a prompt that can never
	// fit the KV pool).
	OutcomeFailed
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomePending:
		return "pending"
	case OutcomeCompleted:
		return "completed"
	case OutcomeShed:
		return "shed"
	case OutcomeDropped:
		return "dropped"
	case OutcomeFailed:
		return "failed"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Request is one generation request. Fields in the first block are immutable
// after construction; the engine mutates the runtime block.
type Request struct {
	ID          int64
	ClientID    int
	Class       string // service/task type, used by trace analysis
	ArrivalTime float64
	InputLen    int
	// TrueOutputLen is the hidden ground-truth number of output tokens
	// (already clamped to MaxNewTokens by New). Only the oracle scheduler
	// and the metrics layer may read it.
	TrueOutputLen int
	MaxNewTokens  int

	// Runtime state, owned by the engine.
	State      State
	Generated  int // output tokens emitted so far (kept across evictions)
	Evictions  int // times this request was evicted from the running batch
	Admissions int // times this request was admitted (1 + re-admissions)
	// KV addresses the request's allocation in the admitting engine's pool;
	// the zero Handle whenever the request holds no memory (queued, evicted,
	// handed off, terminal).
	KV kv.Handle

	// SLA bookkeeping.
	FirstTokenAt float64 // timestamp of first output token; <0 until set
	LastEmitAt   float64 // timestamp of most recent output token
	MaxGap       float64 // max gap between consecutive output tokens (MTPOT)
	FinishedAt   float64 // completion timestamp; <0 until finished
	DroppedAt    float64 // queue-timeout abandonment timestamp; <0 if never

	// Outcome is the request's terminal disposition (set exactly once).
	Outcome Outcome
	// TTFTDeadline is the absolute time by which the first token must be
	// visible for the SLA to hold (ArrivalTime + TTFT budget); 0 when no
	// deadline was stamped. Cluster-front admission control sheds requests
	// whose remaining budget cannot cover the predicted service floor.
	TTFTDeadline float64
	// ShedAt is when admission control shed the request; <0 if never.
	ShedAt float64

	// Swapped marks a request whose KV cache sits in host memory after a
	// swap-policy eviction; re-admission pays a swap-in transfer instead of
	// prompt recomputation.
	Swapped bool

	// Disaggregated-serving bookkeeping (prefill/decode pool handoff).
	//
	// Migrated marks a request whose KV cache arrived over the transfer
	// link from a prefill-only engine: its first admission on the decode
	// engine pays no prefill compute (the transfer was simulated by the
	// link), and the flag clears on that admission so a later eviction
	// recomputes normally.
	Migrated bool
	// PrefillDoneAt is when a prefill-only engine finished this request's
	// prompt and emitted the handoff; <0 in monolithic serving.
	PrefillDoneAt float64
	// DeliveredAt is when the KV transfer landed on the decode side; <0
	// until delivered. The SLA clock for the first token: users see nothing
	// before the handoff completes.
	DeliveredAt float64

	// PredictedLen is scheduler scratch space: the current predicted total
	// output length (Past-Future resamples it every step).
	PredictedLen int

	// Retries counts fault recoveries: each ResetForRetry (after a replica
	// crash orphaned the request, or after KV-transfer retries exhausted and
	// it fell back to re-prefill) increments it. A completed request with
	// Retries > 0 was recovered; a shed one with Retries > 0 was re-shed.
	Retries int

	// Prefix-cache identity (immutable, stamped by the workload generator).
	//
	// PrefixHashes are the chained block hashes covering the leading
	// len(PrefixHashes)·BlockTokens prompt tokens, in prompt order (see
	// kv.PrefixHash). Nil/empty means the request carries no cacheable
	// prefix — and a caching-disabled fleet ignores them entirely, which is
	// what the disabled-path equivalence pin relies on.
	PrefixHashes []uint64
	// SessionID groups the turns of one multi-turn conversation (0 for
	// single-turn traffic); Turn is the 1-based turn index within it.
	SessionID int64
	Turn      int

	// Prefix-cache runtime state, owned by the admitting engine and cleared
	// whenever the allocation is released (eviction, crash, retry).
	//
	// CachedTokens is how many prompt tokens were served by resident cache
	// blocks at admission — prefill that never runs, and footprint the
	// estimators must not double count (the block's creator counts it).
	CachedTokens int
	// RestoredTokens is how many prompt tokens were restored from the host
	// offload store at admission — prefill replaced by wire time.
	RestoredTokens int

	// Chunked-prefill cursor, owned by the admitting engine and cleared
	// whenever the allocation is released (eviction, crash, retry).
	//
	// ChunkedPrefill marks a request whose prefill is landing chunk by
	// chunk; PrefillDone is the KV footprint materialised so far (cached,
	// restored, and already-computed chunk tokens). While mid-chunk, the
	// request holds a full-footprint reservation but only PrefillDone
	// tokens of it exist — estimators charge the rest as Remaining growth.
	ChunkedPrefill bool
	PrefillDone    int
}

// New constructs a request. trueOutputLen is clamped to [1, maxNewTokens]:
// a generation always emits at least one token (the prefill's output) and
// never exceeds the cap.
func New(id int64, inputLen, trueOutputLen, maxNewTokens int, arrival float64) *Request {
	if inputLen <= 0 {
		panic(fmt.Sprintf("request %d: non-positive input length %d", id, inputLen))
	}
	if maxNewTokens <= 0 {
		panic(fmt.Sprintf("request %d: non-positive max_new_tokens %d", id, maxNewTokens))
	}
	if trueOutputLen < 1 {
		trueOutputLen = 1
	}
	if trueOutputLen > maxNewTokens {
		trueOutputLen = maxNewTokens
	}
	return &Request{
		ID:            id,
		ArrivalTime:   arrival,
		InputLen:      inputLen,
		TrueOutputLen: trueOutputLen,
		MaxNewTokens:  maxNewTokens,
		State:         Waiting,
		FirstTokenAt:  -1,
		LastEmitAt:    -1,
		FinishedAt:    -1,
		DroppedAt:     -1,
		ShedAt:        -1,
		PrefillDoneAt: -1,
		DeliveredAt:   -1,
	}
}

// Footprint returns the KV tokens the request occupies while running.
func (r *Request) Footprint() int { return r.InputLen + r.Generated }

// PrefillRemaining returns the prompt tokens a mid-chunk request has yet
// to materialise: footprint growth the estimators must still charge. Zero
// for every request outside chunked prefill, so chunking-disabled paths
// are untouched.
func (r *Request) PrefillRemaining() int {
	if !r.ChunkedPrefill {
		return 0
	}
	if rem := r.Footprint() - r.PrefillDone; rem > 0 {
		return rem
	}
	return 0
}

// KVLanded returns the KV tokens that physically exist for this request:
// the full footprint once prefill is done, the chunk cursor while it is
// still landing. Equal to Footprint for every non-chunked request.
func (r *Request) KVLanded() int {
	if !r.ChunkedPrefill {
		return r.Footprint()
	}
	return r.PrefillDone
}

// RemainingTrue returns the ground-truth tokens still to generate.
// Scheduler code other than the oracle must not call this.
func (r *Request) RemainingTrue() int { return r.TrueOutputLen - r.Generated }

// Done reports whether every output token has been emitted.
func (r *Request) Done() bool { return r.Generated >= r.TrueOutputLen }

// EmitToken records one output token at the given time, maintaining TTFT
// and inter-token-gap statistics. The engine calls this once per request per
// prefill/decode iteration.
func (r *Request) EmitToken(now float64) {
	if r.Done() {
		panic(fmt.Sprintf("request %d: token emitted past completion", r.ID))
	}
	if r.FirstTokenAt < 0 {
		r.FirstTokenAt = now
	} else if gap := now - r.LastEmitAt; gap > r.MaxGap {
		r.MaxGap = gap
	}
	r.LastEmitAt = now
	r.Generated++
}

// EmitTokens records k output tokens at once for a request that already has
// its first: the last of them at now, maxGap the largest gap between
// consecutive ones (the first measured from LastEmitAt). It leaves the
// request exactly as k EmitToken calls at those times would — the engine
// uses it to settle a run of decode steps it did not walk the batch for.
func (r *Request) EmitTokens(k int, now, maxGap float64) {
	if r.FirstTokenAt < 0 || k <= 0 || r.Generated+k > r.TrueOutputLen {
		panic(fmt.Sprintf("request %d: %d tokens emitted at once after %d of %d (first token at %v)",
			r.ID, k, r.Generated, r.TrueOutputLen, r.FirstTokenAt))
	}
	if maxGap > r.MaxGap {
		r.MaxGap = maxGap
	}
	r.LastEmitAt = now
	r.Generated += k
}

// Finish marks completion at the given time.
func (r *Request) Finish(now float64) {
	if !r.Done() {
		panic(fmt.Sprintf("request %d: finished with %d of %d tokens", r.ID, r.Generated, r.TrueOutputLen))
	}
	if r.Outcome != OutcomePending {
		panic(fmt.Sprintf("request %d: finished after terminal outcome %v", r.ID, r.Outcome))
	}
	r.State = Finished
	r.FinishedAt = now
	r.Outcome = OutcomeCompleted
}

// Shed marks the request refused by cluster-front admission control at the
// given time: its remaining TTFT budget could not cover the predicted
// prefill + transfer + admission wait, so serving it would only burn
// capacity on a guaranteed SLA violation. Shedding is terminal — the
// request must not already hold another terminal outcome — and legal both
// before any engine saw the request (front-of-cluster shed) and after a
// prefill-only engine handed it off but before the KV transfer was booked
// (transfer-boundary shed).
func (r *Request) Shed(now float64) {
	if r.Outcome != OutcomePending {
		panic(fmt.Sprintf("request %d: shed after terminal outcome %v", r.ID, r.Outcome))
	}
	r.Outcome = OutcomeShed
	r.ShedAt = now
}

// MarkDropped records a queue-timeout abandonment as the terminal outcome.
func (r *Request) MarkDropped(now float64) {
	if r.Outcome != OutcomePending {
		panic(fmt.Sprintf("request %d: dropped after terminal outcome %v", r.ID, r.Outcome))
	}
	r.Outcome = OutcomeDropped
	r.DroppedAt = now
}

// MarkFailed records an unservable drop as the terminal outcome.
func (r *Request) MarkFailed() {
	if r.Outcome != OutcomePending {
		panic(fmt.Sprintf("request %d: failed after terminal outcome %v", r.ID, r.Outcome))
	}
	r.Outcome = OutcomeFailed
}

// RecordMigration marks the KV transfer from a prefill-only engine as
// delivered at the given time. The first token was computed at prefill
// completion but is not *visible* until the handoff lands, so the SLA
// timestamps shift to the delivery time: TTFT is measured arrival →
// delivery, and the decode engine's next token gaps from delivery. The
// request becomes eligible for SubmitMigrated admission.
func (r *Request) RecordMigration(deliveredAt float64) {
	if r.Generated == 0 || r.FirstTokenAt < 0 {
		panic(fmt.Sprintf("request %d: migration before the prefill token", r.ID))
	}
	if deliveredAt < r.FirstTokenAt {
		panic(fmt.Sprintf("request %d: delivery at %v precedes prefill completion %v",
			r.ID, deliveredAt, r.FirstTokenAt))
	}
	r.FirstTokenAt = deliveredAt
	r.LastEmitAt = deliveredAt
	r.DeliveredAt = deliveredAt
	r.Migrated = true
}

// ResetForRetry rewinds the runtime state so the request can re-enter the
// cluster after a fault destroyed its progress (replica crash, exhausted
// KV-transfer retries). Identity and SLA terms are preserved — ArrivalTime
// and TTFTDeadline keep charging the crash-induced wait against the original
// budget — while every token and transfer mark is cleared: the KV cache died
// with the fault, so prefill must rerun and the first token is no longer
// visible. MaxGap resets with FirstTokenAt; the recovery wait lands in TTFT,
// not in a phantom inter-token gap. Only a Pending request may retry — a
// terminal outcome is final under the conservation invariant.
func (r *Request) ResetForRetry() {
	if r.Outcome != OutcomePending {
		panic(fmt.Sprintf("request %d: retry after terminal outcome %v", r.ID, r.Outcome))
	}
	r.State = Waiting
	r.Generated = 0
	r.FirstTokenAt = -1
	r.LastEmitAt = -1
	r.MaxGap = 0
	r.Swapped = false
	r.Migrated = false
	r.PrefillDoneAt = -1
	r.DeliveredAt = -1
	r.CachedTokens = 0
	r.RestoredTokens = 0
	r.ChunkedPrefill = false
	r.PrefillDone = 0
	r.Retries++
}

// TTFT returns the time to first token, or -1 if none was emitted.
func (r *Request) TTFT() float64 {
	if r.FirstTokenAt < 0 {
		return -1
	}
	return r.FirstTokenAt - r.ArrivalTime
}

// TPOT returns the mean time per output token after the first, or 0 for
// single-token outputs.
func (r *Request) TPOT() float64 {
	if r.Generated < 2 || r.FirstTokenAt < 0 {
		return 0
	}
	return (r.LastEmitAt - r.FirstTokenAt) / float64(r.Generated-1)
}

// MTPOT returns the maximum inter-token gap (0 for single-token outputs).
func (r *Request) MTPOT() float64 { return r.MaxGap }

// Latency returns total time from arrival to completion, or -1 if running.
func (r *Request) Latency() float64 {
	if r.FinishedAt < 0 {
		return -1
	}
	return r.FinishedAt - r.ArrivalTime
}

// String implements fmt.Stringer for debug output.
func (r *Request) String() string {
	return fmt.Sprintf("req(%d %s in=%d out=%d/%d evict=%d)",
		r.ID, r.State, r.InputLen, r.Generated, r.TrueOutputLen, r.Evictions)
}
