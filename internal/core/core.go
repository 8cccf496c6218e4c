// Package core implements the paper's primary contribution: the Past-Future
// request scheduler (§3, Algorithm 1) and the baseline schedulers it is
// evaluated against (conservative, aggressive, and the theoretical-optimum
// oracle).
//
// A scheduler's only job is the admission decision of continuous batching:
// given the running batch, the KV-memory state, and the FCFS wait queue,
// decide how many requests from the head of the queue join the batch now.
//
//   - The conservative scheduler (§2.4; TGI, DeepSpeed-MII) reserves
//     input + max_new_tokens for every request — safe but wasteful.
//   - The aggressive scheduler (§2.4; vLLM) admits on current usage only —
//     high utilisation but frequent evictions once outputs grow.
//   - The Past-Future scheduler predicts output lengths from the recent
//     history window (the past) and computes the running batch's peak
//     memory at every future completion point (the future, Eq. 2–4),
//     admitting exactly when the peak stays under the reserve threshold.
//   - The oracle applies the same future-peak computation to the hidden
//     ground-truth lengths: the paper's "theoretical optimum".
package core

import (
	"sort"

	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/request"
)

// View is the engine state a scheduler sees when making an admission
// decision. Schedulers must treat it as read-only except for the
// PredictedLen scratch field on requests.
type View struct {
	// Now is the simulation time of this scheduling step.
	Now float64
	// CapacityTokens is the KV pool's logical capacity.
	CapacityTokens int
	// UsedTokens is the logical tokens currently allocated.
	UsedTokens int
	// FreeTokens is the physically free tokens (block-granular pools may
	// have FreeTokens < CapacityTokens-UsedTokens due to fragmentation).
	FreeTokens int
	// Running is the current running batch.
	Running []*request.Request
	// History is the sliding window of actual output lengths of recently
	// finished requests (the Past-Future scheduler's "past").
	History *dist.Window
	// ClassHistory, when non-nil, returns the per-service-class history
	// window (nil for unseen classes). Class-aware schedulers prefer it
	// over the global mixture for multi-tenant deployments.
	ClassHistory func(class string) *dist.Window
}

// Scheduler decides admissions. Admit returns how many requests from the
// head of queue (FCFS order) to admit in this iteration; implementations
// stop at the first request that does not fit, exactly like Algorithm 1.
type Scheduler interface {
	Name() string
	Admit(v *View, queue []*request.Request) int
}

// Entry is one request's memory trajectory as the estimator sees it:
// Current tokens occupied now, and Remaining output tokens predicted before
// it completes and releases everything.
type Entry struct {
	Current   int
	Remaining int
}

// FutureRequiredMemory computes M* (Equations 2–4): the peak KV memory the
// batch will need at any future time point, assuming each request generates
// exactly its Remaining tokens and then frees its memory.
//
// This is the straightforward reference implementation (clone, sort, scan —
// O(B log B) with an allocation per call). The scheduling hot path uses the
// incremental PeakEstimator instead, which is cross-checked against this
// function for bit-identical results.
//
// Sorting by remaining length descending, the memory at the moment the i-th
// request finishes is
//
//	M_i = Σ_{j≤i} Current_j + Remaining_i × i
//
// and M* = max_i M_i. The peak can only occur at a completion point: between
// completions occupancy grows monotonically (+batch size per step).
func FutureRequiredMemory(entries []Entry) int {
	if len(entries) == 0 {
		return 0
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	for i := range sorted {
		if sorted[i].Remaining < 0 {
			sorted[i].Remaining = 0 // finished-this-step requests hold memory but grow no further
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Remaining > sorted[j].Remaining })
	peak := 0
	prefix := 0
	for i, e := range sorted {
		prefix += e.Current
		m := prefix + e.Remaining*(i+1)
		if m > peak {
			peak = m
		}
	}
	return peak
}

// futurePeakWithCandidate computes M* for entries plus one extra candidate
// without mutating entries — the naive per-candidate path (one allocation
// and a full re-sort per call), kept as the PeakEstimator's reference
// baseline for benchmarks and cross-check tests.
func futurePeakWithCandidate(entries []Entry, cand Entry) int {
	tmp := make([]Entry, len(entries)+1)
	copy(tmp, entries)
	tmp[len(entries)] = cand
	return FutureRequiredMemory(tmp)
}

// TrueFutureRequiredMemory returns the ground-truth M* of a batch — what the
// batch will actually need. The metrics layer records this after every
// admission (Table 1's "Future Required Memory"); a value above capacity
// means the admission has made a future eviction inevitable.
//
// Allocation-sensitive callers (the engine's per-step bookkeeping) should
// instead keep a PeakEstimator and feed it with PushTrue.
func TrueFutureRequiredMemory(batch []*request.Request) int {
	var est PeakEstimator
	for _, r := range batch {
		est.PushTrue(r)
	}
	return est.Peak()
}

// QuantilePrediction returns the deterministic conditional-quantile
// prediction of a request's *total* output length: the quantile of
// P(l | l > generated) from the sampler, clamped into
// (r.Generated, r.MaxNewTokens]. A nil sampler (cold start) and lengths
// beyond the window's support both predict the max_new_tokens cap.
//
// It is the single prediction rule shared by PredictedBatchPeak and the
// cluster routing probes, so that the warm-estimator and clone+sort paths
// are bit-identical by construction.
func QuantilePrediction(r *request.Request, sampler *dist.Sampler, quantile float64) int {
	v, ok := 0, false
	if sampler != nil {
		v, ok = sampler.QuantileGreater(quantile, r.Generated)
	}
	return clampPrediction(r, v, ok)
}

// clampPrediction is the request's half of the prediction rule: it folds
// what the sampler answered for P(l | l > r.Generated) — ok false when there
// is no sampler or no mass left — into (r.Generated, r.MaxNewTokens].
func clampPrediction(r *request.Request, v int, ok bool) int {
	pred := r.MaxNewTokens
	if ok {
		pred = v
	}
	if pred > r.MaxNewTokens {
		pred = r.MaxNewTokens
	}
	if pred <= r.Generated {
		pred = r.Generated + 1
	}
	return pred
}

// QuantileEntry is the estimator entry for a request under the
// deterministic conditional-quantile prediction rule.
//
// Current discounts the tokens served from a shared prefix cache
// (r.CachedTokens): a hit block's memory is charged to the request that
// first published it, so counting it again at every sharer would make the
// estimators — and through them admission, shedding floors, and routing
// probes — see phantom footprint. CachedTokens is 0 whenever prefix caching
// is off, keeping this the exact pre-cache entry.
func QuantileEntry(r *request.Request, sampler *dist.Sampler, quantile float64) Entry {
	return quantileEntry(r, QuantilePrediction(r, sampler, quantile))
}

func quantileEntry(r *request.Request, pred int) Entry {
	// Chunked prefill: only KVLanded() is resident now; the unprefilled
	// tail rides in Remaining so the projected peak is unchanged.
	return Entry{Current: r.KVLanded() - r.CachedTokens, Remaining: pred - r.Generated + r.PrefillRemaining()}
}

// FreshQuantile is the sampler's half of QuantileEntry for every request
// that has generated nothing yet, read once: such requests all condition on
// l > 0, so a caller pricing many of them against one unchanged window — a
// routing probe's candidates, a replica's waiting set — keeps this value and
// never touches the window's memory for them. It is only as fresh as the
// window it was read from: take a new one after any Add.
type FreshQuantile struct {
	v  int
	ok bool
}

// NewFreshQuantile reads the quantile of P(l | l > 0) from the sampler; a
// nil sampler (cold start) yields the value that predicts every cap.
func NewFreshQuantile(sampler *dist.Sampler, quantile float64) FreshQuantile {
	if sampler == nil {
		return FreshQuantile{}
	}
	v, ok := sampler.QuantileGreater(quantile, 0)
	return FreshQuantile{v, ok}
}

// Entry is QuantileEntry(r, sampler, quantile) for a request with
// r.Generated == 0, over the sampler and quantile f was read at.
func (f FreshQuantile) Entry(r *request.Request) Entry {
	return quantileEntry(r, clampPrediction(r, f.v, f.ok))
}

// PredictedBatchPeak estimates a batch's future peak memory from the
// history window using deterministic conditional-quantile predictions —
// the estimator applied outside the admission loop, as the paper's future
// work proposes for load-aware request forwarding across service instances
// (§7). Requests whose generated length exceeds the window's support (and
// all requests during cold start) predict their max_new_tokens cap.
//
// Allocation-sensitive callers (the cluster routing hot path) should keep a
// warm PeakEstimator per replica and probe with PeakWith instead; this
// function rebuilds an estimator per call and stays as the reference
// baseline the cluster's probes are cross-checked against.
func PredictedBatchPeak(batch []*request.Request, history *dist.Window, quantile float64) int {
	var sampler *dist.Sampler
	if history != nil {
		sampler = history.Sampler()
	}
	var est PeakEstimator
	for _, r := range batch {
		est.Push(QuantileEntry(r, sampler, quantile))
	}
	return est.Peak()
}
