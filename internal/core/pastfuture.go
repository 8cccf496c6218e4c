package core

import (
	"fmt"
	"math"

	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// PastFutureConfig parameterises the Past-Future scheduler.
type PastFutureConfig struct {
	// Reserved is the fraction of KV capacity held back to absorb
	// prediction error (paper Table 1 evaluates 3%, 5%, 10%).
	// Admission requires M* ≤ (1-Reserved) × capacity.
	Reserved float64
	// Rng drives the sampling predictions. Required unless Deterministic.
	Rng *rng.RNG
	// Samples is the number of prediction redraws per request when the
	// batch is small (the paper repeats sampling at low batch sizes to
	// improve accuracy); the maximum draw is used. 0 selects 4.
	Samples int
	// SmallBatch is the batch-size threshold under which multi-sampling is
	// applied. 0 selects 8.
	SmallBatch int
	// MinHistory is the number of finished requests required before the
	// window is trusted; below it, predictions fall back to max_new_tokens
	// (the paper's cold-start policy). 0 selects 16.
	MinHistory int
	// Deterministic replaces random draws with fixed conditional quantiles
	// (Quantile), making admissions reproducible without an RNG stream.
	// Used by tests and by latency-sensitive deployments.
	Deterministic bool
	// NoResample is an ablation switch: predictions are drawn once at
	// admission time and never updated, instead of being resampled from
	// P(l > l_t) at every step (§3.2's dynamic update). The paper's full
	// scheduler keeps this false.
	NoResample bool
	// Quantile is the conditional quantile used in deterministic mode.
	// 0 selects 0.9.
	Quantile float64
}

func (c PastFutureConfig) withDefaults() PastFutureConfig {
	if c.Samples == 0 {
		c.Samples = 4
	}
	if c.SmallBatch == 0 {
		c.SmallBatch = 8
	}
	if c.MinHistory == 0 {
		c.MinHistory = 16
	}
	if c.Quantile == 0 {
		c.Quantile = 0.9
	}
	return c
}

// PastFuture is the paper's scheduler (Algorithm 1). Not safe for
// concurrent use: the peak-estimator scratch state is reused across Admit
// calls so that a steady-state admission performs no heap allocations.
type PastFuture struct {
	cfg PastFutureConfig

	est PeakEstimator // incremental M* over the running batch

	// undrawn records that the last Admit refused the head before drawing
	// (refusedUndrawn): it priced nothing and wrote no PredictedLen.
	undrawn bool

	// cert is what the last round's refusal before drawing proved, kept for
	// the rounds of the same View.Epoch after it (repeatRefusal); its epoch
	// is 0 when the last round did not refuse that way.
	cert refusal
}

// refusal is the certificate refusedUndrawn leaves: the round it refused, and
// what a later round of the same Epoch needs to know to refuse the same way
// without walking the batch.
type refusal struct {
	epoch     uint64
	head      *request.Request
	n         int // len(Running)
	window    *dist.Window
	gen       uint64 // the window's Generation
	threshold int
	multi     bool
	draws     int    // the RNG values the round skipped
	bits      uint64 // OR of the head's footprint and every landed value
	g0        int    // Running[0].Generated, when n > 0
	// gap is the fewest tokens any running request that draws can still
	// generate before it reaches the window's largest observation, after
	// which it draws nothing; math.MaxInt when none draws or no draw is
	// counted (Deterministic).
	gap int
}

// NewPastFuture validates the configuration and builds the scheduler.
// The range checks are written as "inside" tests so that NaN, which fails
// every comparison, is rejected with them.
func NewPastFuture(cfg PastFutureConfig) (*PastFuture, error) {
	if !(cfg.Reserved >= 0 && cfg.Reserved < 1) {
		return nil, fmt.Errorf("core: reserved fraction %v outside [0,1)", cfg.Reserved)
	}
	if !cfg.Deterministic && cfg.Rng == nil {
		return nil, fmt.Errorf("core: sampling mode requires an RNG")
	}
	if !(cfg.Quantile >= 0 && cfg.Quantile <= 1) {
		return nil, fmt.Errorf("core: quantile %v outside [0,1]", cfg.Quantile)
	}
	// A negative Samples would skip predict's draw loop and price every
	// multi-sampled request at Generated+1 — the aggressive rule under this
	// scheduler's name; negative SmallBatch and MinHistory are as meaningless.
	if cfg.Samples < 0 || cfg.SmallBatch < 0 || cfg.MinHistory < 0 {
		return nil, fmt.Errorf("core: negative samples %d, small batch %d or min history %d",
			cfg.Samples, cfg.SmallBatch, cfg.MinHistory)
	}
	cfg = cfg.withDefaults()
	return &PastFuture{cfg: cfg}, nil
}

// MustNewPastFuture is NewPastFuture for statically valid configs.
func MustNewPastFuture(cfg PastFutureConfig) *PastFuture {
	pf, err := NewPastFuture(cfg)
	if err != nil {
		panic(err)
	}
	return pf
}

// Name implements Scheduler.
func (pf *PastFuture) Name() string {
	return fmt.Sprintf("past-future(reserved=%d%%)", int(pf.cfg.Reserved*100+0.5))
}

// Reserved returns the configured reserve fraction.
func (pf *PastFuture) Reserved() float64 { return pf.cfg.Reserved }

// Admit implements Algorithm 1. At each scheduling step it
//
//  1. rebuilds P(l) from the history window (Equation 1),
//  2. refuses the queue's head before drawing anything when a floor under
//     M* is already over the threshold — the batch's landed KV, the head's
//     prompt and one more token for each of the n+1 — and skips the RNG
//     past the draws steps 3 and 4 would have made (refusedUndrawn). A
//     round of the same View.Epoch as such a refusal, whose floor has only
//     grown and whose draw count cannot have changed, is refused the same
//     way in O(1) (repeatRefusal),
//  3. resamples the predicted total output length of every running request
//     from P(l > generated) — the "past" informing the present batch,
//  4. walks the queue FCFS, sampling each candidate's length from P(l),
//     computing the batch's future peak memory M* with the candidate
//     included (Equations 2–4), and admitting while
//     M* ≤ (1-reserved) × capacity — the "future" gate.
func (pf *PastFuture) Admit(v *View, queue []*request.Request) int {
	if len(queue) == 0 {
		return 0
	}
	global := pf.usableSampler(v)
	threshold := int(float64(v.CapacityTokens) * (1 - pf.cfg.Reserved))
	multi := len(v.Running)+len(queue) < pf.cfg.SmallBatch

	pf.est.Reset()
	if pf.repeatRefusal(v, queue[0], threshold, multi) {
		pf.undrawn = true
		return 0
	}
	pf.cert.epoch = 0
	pf.undrawn = pf.refusedUndrawn(v, global, queue[0], threshold, multi)
	if pf.undrawn {
		return 0
	}
	for _, r := range v.Running {
		pred := pf.predict(global, r, multi)
		r.PredictedLen = pred
		// Mid-chunk requests have only KVLanded() tokens resident; the
		// unprefilled prompt tail is charged as guaranteed future growth so
		// the eventual peak matches the unchunked view.
		pf.est.Push(Entry{Current: r.KVLanded(), Remaining: pred - r.Generated + r.PrefillRemaining()})
	}

	admitted := 0
	promptNeed := 0 // physical tokens the admitted prompts allocate right now
	for _, q := range queue {
		pred := pf.predict(global, q, multi)
		q.PredictedLen = pred
		cand := Entry{Current: q.Footprint(), Remaining: pred - q.Generated}
		if promptNeed+q.Footprint() > v.FreeTokens {
			break // prompt cannot be physically allocated this iteration
		}
		if pf.est.Exceeds(cand, threshold) {
			break
		}
		pf.est.Push(cand)
		promptNeed += q.Footprint()
		admitted++
	}
	if admitted > 0 {
		v.PredictedPeak = pf.est.Peak() // sorted by the admitting queries: O(1)
	}
	return admitted
}

// refusedUndrawn is Admit's step 2, one pass over the batch that sums its
// landed KV and counts the draws predict would make for it and the head.
// Outside cold start every prediction leaves at least one token to come, so
// the term Exceeds checks first with the head as candidate, ΣCurrent +
// (n+1)·min Remaining, is at least ΣKVLanded + head.Footprint() + (n+1).
// When that floor is over the threshold, the head is refused whatever the
// draws would have been: refusedUndrawn skips the RNG past them, so every
// later draw is the one the full round would have left, and reports true.
//
// It declines, and the round draws, in cold start (the cap predict falls back
// to has no floor of 1), when a value lies outside Exceeds' no-wrap range
// (every Current below 2^32, n below 2^30), or when a NoResample request
// would draw a prediction that a later round keeps: a running one, whose
// Generated grows, or a requeued head that has generated.
// Otherwise no PredictedLen needs writing. Only NoResample reads it back, and
// a kept prediction comes back as max(PredictedLen, Generated+1) whether or
// not this round floored it first.
//
// A refusal under a non-zero View.Epoch leaves its certificate in pf.cert for
// repeatRefusal.
func (pf *PastFuture) refusedUndrawn(v *View, global *dist.Sampler, head *request.Request, threshold int, multi bool) bool {
	if global == nil {
		return false
	}
	sum := head.Footprint()
	bits := uint64(sum)
	draws, drawn := 0, math.MinInt // drawn: the largest Generated that draws
	for _, r := range v.Running {
		c := r.KVLanded()
		sum += c
		bits |= uint64(c)
		if !pf.cfg.Deterministic {
			n := pf.draws(global, r, multi)
			if n > 0 {
				if pf.cfg.NoResample {
					return false
				}
				drawn = max(drawn, r.Generated)
			}
			draws += n
		}
	}
	if !pf.cfg.Deterministic {
		n := pf.draws(global, head, multi)
		if n > 0 && pf.cfg.NoResample && head.Generated > 0 {
			return false
		}
		draws += n
	}
	n := len(v.Running)
	if bits>>32 != 0 || n >= 1<<30 || sum+n+1 <= threshold {
		return false
	}
	if draws > 0 {
		pf.cfg.Rng.Skip(draws)
	}
	if v.Epoch != 0 {
		gap := math.MaxInt
		if drawn != math.MinInt {
			gap = global.Max() - drawn
		}
		pf.cert = refusal{epoch: v.Epoch, head: head, n: n, window: v.History, gen: v.History.Generation(),
			threshold: threshold, multi: multi, draws: draws, bits: bits, gap: gap}
		if n > 0 {
			pf.cert.g0 = v.Running[0].Generated
		}
	}
	return true
}

// repeatRefusal is step 2 for a round of the same Epoch as the last round's
// refusal before drawing, in O(1). Between the two the batch only decoded,
// each request by at most adv = Running[0].Generated − g0 tokens (View.Epoch),
// and the round checks that everything else refusedUndrawn read is as it was:
// the head, the batch's size, the window and its generation, the threshold
// and multi. Then
//
//   - the floor only grew: landed values and Generated did not fall;
//   - every landed value is at most bits + adv, so while that stays under
//     2^32 the no-wrap range still holds;
//   - no draw count changed: a running request stops drawing once its
//     Generated reaches the window's largest observation, which takes more
//     than adv tokens while adv < gap; one that drew nothing still draws
//     nothing (its Generated only grew, or NoResample keeps what it has); the
//     head, still queued, is unchanged; and the window is the same.
//
// So refusedUndrawn would refuse again and skip the same number of values,
// and repeatRefusal does that. It declines — and the round takes the full
// pass — when any of it fails.
func (pf *PastFuture) repeatRefusal(v *View, head *request.Request, threshold int, multi bool) bool {
	c := &pf.cert
	if v.Epoch == 0 || c.epoch != v.Epoch || c.head != head || c.n != len(v.Running) ||
		c.window != v.History || c.gen != v.History.Generation() || c.threshold != threshold || c.multi != multi {
		return false
	}
	adv := 0
	if c.n > 0 {
		adv = v.Running[0].Generated - c.g0
	}
	if adv < 0 || adv >= c.gap || (c.bits+uint64(adv))>>32 != 0 {
		return false
	}
	if c.draws > 0 {
		pf.cfg.Rng.Skip(c.draws)
	}
	return true
}

// usableSampler returns the history sampler, or nil during cold start.
func (pf *PastFuture) usableSampler(v *View) *dist.Sampler {
	if v.History == nil || v.History.Len() < pf.cfg.MinHistory {
		return nil
	}
	return v.History.Sampler()
}

// keeps reports whether the NoResample ablation keeps r's admission-time
// prediction instead of drawing a new one.
func (pf *PastFuture) keeps(r *request.Request) bool {
	return pf.cfg.NoResample && r.Generated > 0 && r.PredictedLen > 0
}

// draws returns how many values predict takes from a warm sampler for r: none
// when it keeps r's prediction or the window holds nothing to take (no
// observation above r.Generated for a request that has generated, an empty
// window for one that has not), otherwise Samples when multi and 1 when not.
// In sampling mode each value is one Intn: one Uint64 from the RNG.
func (pf *PastFuture) draws(sampler *dist.Sampler, r *request.Request, multi bool) int {
	if pf.keeps(r) {
		return 0
	}
	if r.Generated > 0 {
		if sampler.Max() <= r.Generated {
			return 0
		}
	} else if sampler.Len() == 0 {
		return 0
	}
	if multi {
		return pf.cfg.Samples
	}
	return 1
}

// predict returns the predicted *total* output length for a request that
// has already generated r.Generated tokens. The result is always in
// (r.Generated, r.MaxNewTokens] so the remaining-length term stays positive.
func (pf *PastFuture) predict(sampler *dist.Sampler, r *request.Request, multi bool) int {
	if sampler == nil {
		return r.MaxNewTokens // cold start: assume the cap
	}
	if pf.keeps(r) {
		// Ablation: keep the admission-time prediction, only floored so the
		// remaining-length term stays positive.
		return max(r.PredictedLen, r.Generated+1)
	}
	n := pf.draws(sampler, r, multi)
	pred := 0
	if n == 0 && r.Generated > 0 {
		// No historical mass above the current length: the window says
		// this request "should have finished"; predict the cap.
		pred = r.MaxNewTokens
	}
	for i := 0; i < n; i++ {
		var v int
		if r.Generated > 0 {
			// Running (or evicted-and-requeued) request: condition on the
			// fact that it has not stopped yet.
			if pf.cfg.Deterministic {
				v, _ = sampler.QuantileGreater(pf.cfg.Quantile, r.Generated)
			} else {
				v, _ = sampler.SampleGreater(pf.cfg.Rng, r.Generated)
			}
		} else if pf.cfg.Deterministic {
			v = sampler.Quantile(pf.cfg.Quantile)
		} else {
			v = sampler.Sample(pf.cfg.Rng)
		}
		pred = max(pred, v)
	}
	if pred > r.MaxNewTokens {
		pred = r.MaxNewTokens
	}
	if pred <= r.Generated {
		pred = r.Generated + 1 // at least one more token is coming
	}
	return pred
}

var _ Scheduler = (*PastFuture)(nil)
