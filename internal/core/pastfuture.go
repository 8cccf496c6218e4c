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
	// Deterministic replaces random draws with fixed conditional quantiles
	// (Quantile), making admissions reproducible without an RNG stream.
	// Tests and ROADMAP's reserve/quantile frontier set it; no program does.
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

// minHistory is the number of finished requests required before the
// window is trusted; below it, predictions fall back to max_new_tokens (the
// paper's cold-start policy).
const minHistory = 16

func (c PastFutureConfig) withDefaults() PastFutureConfig {
	if c.Samples == 0 {
		c.Samples = 4
	}
	if c.SmallBatch == 0 {
		c.SmallBatch = 8
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
	// fitted records that the last Admit answered under the conservative
	// budget before drawing (admittedUndrawn): it priced nothing, wrote no
	// PredictedLen and left PredictedPeak at 0.
	fitted bool

	// cert is what the last round's refusal before drawing proved, kept for
	// the rounds of the same View.Epoch after it (repeatRefusal); its epoch
	// is 0 when the last round did not refuse that way.
	cert refusal

	exits Exits // rounds by exit
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
	// scheduler's name; a negative SmallBatch is as meaningless.
	if cfg.Samples < 0 || cfg.SmallBatch < 0 {
		return nil, fmt.Errorf("core: negative samples %d or small batch %d",
			cfg.Samples, cfg.SmallBatch)
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
//  2. settles the round before drawing anything when the draws cannot change
//     its answer, and skips the RNG past the draws steps 3 and 4 would have
//     made. It refuses the queue's head when a floor under M* is already over
//     the threshold — the batch's landed KV, the head's prompt and one more
//     token for each of the n+1 (refusedUndrawn). A round of the same
//     View.Epoch as such a refusal, whose floor has only grown and whose draw
//     count cannot have changed, is refused the same way in O(1)
//     (repeatRefusal, which RefusesAgain offers a caller before any View).
//     When the caller reads nothing the round leaves (View.Unobserved), it
//     admits the prefix steps 3 and 4 would admit when a ceiling over M*
//     stays under the threshold — every request held to its max_new_tokens,
//     the conservative budget (admittedUndrawn),
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
	threshold := pf.threshold(v.CapacityTokens)
	multi := pf.multi(len(v.Running), len(queue))

	pf.est.Reset()
	pf.fitted = false
	lead := 0
	if len(v.Running) > 0 {
		lead = v.Running[0].Generated
	}
	round := RepeatRound{Epoch: v.Epoch, Head: queue[0], Running: len(v.Running), Queued: len(queue), Lead: lead,
		History: v.History, CapacityTokens: v.CapacityTokens}
	if pf.repeatRefusal(round, threshold, multi) {
		pf.undrawn = true
		pf.exits.Repeat++
		return 0
	}
	pf.cert.epoch = 0
	pf.undrawn = false
	if ceiled := v.Unobserved && !pf.cfg.NoResample; global != nil || ceiled {
		p := pf.walk(v, queue[0], ceiled)
		if pf.undrawn = global != nil && pf.refusedUndrawn(v, global, queue[0], threshold, multi, &p); pf.undrawn {
			pf.exits.RefusedUndrawn++
			return 0
		}
		if ceiled {
			if n, fits := pf.admittedUndrawn(v, global, queue, threshold, multi, &p); fits {
				pf.fitted = true
				pf.exits.AdmittedUndrawn++
				return n
			}
		}
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
	if admitted == 0 {
		pf.exits.PricedRefuse++
		return 0
	}
	pf.exits.PricedAdmit++
	v.PredictedPeak = pf.est.Peak() // sorted by the admitting queries: one pass
	return admitted
}

// RefusesAgain implements RepeatRefuser through repeatRefusal, the same test
// Admit makes first: it refuses a round of the same Epoch as the last
// round's refusal before drawing, skipping the same RNG values, and leaves
// the scheduler as Admit's refusal would.
func (pf *PastFuture) RefusesAgain(r RepeatRound) bool {
	if !pf.repeatRefusal(r, pf.threshold(r.CapacityTokens), pf.multi(r.Running, r.Queued)) {
		return false
	}
	pf.est.Reset()
	pf.fitted, pf.undrawn = false, true
	pf.exits.RepeatAsked++
	return true
}

// threshold is the M* a round may admit up to over a pool of capacity tokens.
func (pf *PastFuture) threshold(capacity int) int {
	return int(float64(capacity) * (1 - pf.cfg.Reserved))
}

// multi reports whether a round over running requests and queued ones
// multi-samples each prediction.
func (pf *PastFuture) multi(running, queued int) bool {
	return running+queued < pf.cfg.SmallBatch
}

// Exits counts a PastFuture's rounds by the way each ended: a host-free
// witness of how much work the admission rounds did. A round of an empty
// queue is not counted.
type Exits struct {
	// RepeatAsked rounds were refused by RefusesAgain, before any View;
	// Repeat ones by the same certificate inside Admit (repeatRefusal).
	RepeatAsked, Repeat int64
	// RefusedUndrawn and AdmittedUndrawn rounds were settled before drawing
	// (refusedUndrawn, admittedUndrawn).
	RefusedUndrawn, AdmittedUndrawn int64
	// PricedAdmit and PricedRefuse rounds drew the batch's predictions and
	// admitted a prefix, or nothing.
	PricedAdmit, PricedRefuse int64
}

// Exits returns the scheduler's round counts since it was built.
func (pf *PastFuture) Exits() Exits { return pf.exits }

// batchPass is what Admit's one walk over the running batch before drawing
// collects for refusedUndrawn and admittedUndrawn.
type batchPass struct {
	floor int    // ΣKVLanded + the head's footprint
	ceil  int    // Σ(KVLanded + max(MaxNewTokens−Generated, 1) + PrefillRemaining), when ceiled
	bits  uint64 // OR of the head's footprint and every landed value
	cbits uint64 // OR of every ceiling term's remaining length
}

// walk is step 2's one pass over the batch: it sums the landed KV and, when
// ceiled, the conservative budget. What the draws would be is counted only by
// an exit that settles the round (drawCount), so a round that goes on to draw
// pays for no count.
func (pf *PastFuture) walk(v *View, head *request.Request, ceiled bool) batchPass {
	p := batchPass{floor: head.Footprint()}
	p.bits = uint64(p.floor)
	for _, r := range v.Running {
		c := r.KVLanded()
		p.floor += c
		p.bits |= uint64(c)
		if ceiled {
			rem := max(r.MaxNewTokens-r.Generated, 1) + r.PrefillRemaining()
			p.ceil += c + rem
			p.cbits |= uint64(rem)
		}
	}
	return p
}

// drawCount counts the values predict would take from a warm sampler for the
// batch and the head, through draws, the helper that mirrors predict's
// consumption, and the largest Generated among running requests that draw
// (math.MinInt when none). In deterministic mode nothing is drawn. It reports
// false when the round must draw after all: when a NoResample request would
// draw a prediction that a later round keeps — a running one, whose Generated
// grows, or a requeued head that has generated.
func (pf *PastFuture) drawCount(v *View, global *dist.Sampler, head *request.Request, multi bool) (draws, drawn int, ok bool) {
	drawn = math.MinInt
	if pf.cfg.Deterministic {
		return 0, drawn, true
	}
	for _, r := range v.Running {
		n := pf.draws(global, r, multi)
		if n > 0 {
			if pf.cfg.NoResample {
				return 0, drawn, false
			}
			drawn = max(drawn, r.Generated)
		}
		draws += n
	}
	n := pf.draws(global, head, multi)
	if n > 0 && pf.cfg.NoResample && head.Generated > 0 {
		return 0, drawn, false
	}
	return draws + n, drawn, true
}

// refusedUndrawn is Admit's step 2 at the knee, over walk's sums. Outside
// cold start every prediction leaves at least one token to come, so the term
// Exceeds checks first with the head as candidate, ΣCurrent + (n+1)·min
// Remaining, is at least ΣKVLanded + head.Footprint() + (n+1). When that
// floor is over the threshold, the head is refused whatever the draws would
// have been: refusedUndrawn skips the RNG past them, so every later draw is
// the one the full round would have left, and reports true.
//
// It declines, and the round draws, in cold start (the cap predict falls back
// to has no floor of 1), when a value lies outside Exceeds' no-wrap range
// (every Current below 2^32, n below 2^30) and when drawCount does
// (NoResample). Otherwise no PredictedLen needs writing. Only NoResample reads
// it back, and a kept prediction comes back as max(PredictedLen,
// Generated+1) whether or not this round floored it first.
//
// A refusal under a non-zero View.Epoch leaves its certificate in pf.cert for
// repeatRefusal.
func (pf *PastFuture) refusedUndrawn(v *View, global *dist.Sampler, head *request.Request, threshold int, multi bool, p *batchPass) bool {
	n := len(v.Running)
	if p.bits>>32 != 0 || n >= 1<<30 || p.floor+n+1 <= threshold {
		return false
	}
	draws, drawn, ok := pf.drawCount(v, global, head, multi)
	if !ok {
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
			threshold: threshold, multi: multi, draws: draws, bits: p.bits, gap: gap}
		if n > 0 {
			pf.cert.g0 = v.Running[0].Generated
		}
	}
	return true
}

// admittedUndrawn is Admit's step 2 below the knee: the mirror of
// refusedUndrawn, a ceiling over M* instead of a floor under it. predict
// never returns more than MaxNewTokens nor less than Generated+1, so no
// entry's Remaining is above its conservative one, max(MaxNewTokens −
// Generated, 1) (plus the unprefilled prompt tail for a running request).
// And sorted by Remaining descending, each completion point ΣCurrent_{j≤i} +
// i·Remaining_i is at most Σ_{j≤i}(Current_j + Remaining_j), so M* of
// non-negative entries is at most Σ(Current + Remaining). admittedUndrawn
// walks the queue as steps 3 and 4 would, FCFS under the same FreeTokens
// rule, adding each candidate's Footprint and conservative Remaining to walk's
// ceiling. If the ceiling stays at or under the threshold up to where the
// FreeTokens rule stops the prefix, or to the queue's end, every draw admits
// that prefix: it skips the RNG past the draws steps 3 and 4 would make —
// the batch's, and every candidate's up to and including the one the rule
// stops — and returns the prefix and true.
//
// It declines, and the round draws, when a candidate's ceiling would pass
// the threshold or a value lies outside Exceeds' no-wrap range (every
// Current and conservative Remaining below 2^32, the batch and queue below
// 2^30, so the ceiling cannot wrap either). It writes no PredictedLen and
// leaves PredictedPeak at 0, which is why Admit only asks it under
// View.Unobserved and not under NoResample, the one reader of PredictedLen.
func (pf *PastFuture) admittedUndrawn(v *View, global *dist.Sampler, queue []*request.Request, threshold int, multi bool, p *batchPass) (int, bool) {
	if (p.bits|p.cbits)>>32 != 0 || len(v.Running)+len(queue) >= 1<<30 {
		return 0, false
	}
	ceil := p.ceil
	admitted, promptNeed := 0, 0
	for _, q := range queue {
		f := q.Footprint()
		if promptNeed+f > v.FreeTokens {
			break
		}
		rem := max(q.MaxNewTokens-q.Generated, 1)
		if (uint64(f)|uint64(rem))>>32 != 0 {
			return 0, false
		}
		if ceil += f + rem; ceil > threshold {
			return 0, false
		}
		promptNeed += f
		admitted++
	}
	if global != nil {
		draws, _, _ := pf.drawCount(v, global, queue[0], multi) // never declines: not NoResample
		if !pf.cfg.Deterministic {
			for _, q := range queue[1:min(admitted+1, len(queue))] {
				draws += pf.draws(global, q, multi)
			}
		}
		if draws > 0 {
			pf.cfg.Rng.Skip(draws)
		}
	}
	return admitted, true
}

// repeatRefusal is step 2 for a round of the same Epoch as the last round's
// refusal before drawing, in O(1), over the round r describes and its
// threshold and multi. Between the two the batch only decoded, each request
// by at most adv = r.Lead − g0 tokens (View.Epoch), and the round checks that
// everything else refusedUndrawn read is as it was: the head, the batch's
// size, the window and its generation, the threshold and multi. Then
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
// pass — when any of it fails. Admit and RefusesAgain both settle a repeat
// here.
func (pf *PastFuture) repeatRefusal(r RepeatRound, threshold int, multi bool) bool {
	c := &pf.cert
	if r.Epoch == 0 || c.epoch != r.Epoch || c.head != r.Head || c.n != r.Running ||
		c.window != r.History || c.gen != r.History.Generation() || c.threshold != threshold || c.multi != multi {
		return false
	}
	adv := 0
	if c.n > 0 {
		adv = r.Lead - c.g0
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
	if v.History == nil || v.History.Len() < minHistory {
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
// A round at the knee — a warm sampler, one draw, resampling — is one sample
// and clampPrediction, the fold QuantilePrediction uses too.
func (pf *PastFuture) predict(sampler *dist.Sampler, r *request.Request, multi bool) int {
	if sampler == nil {
		return r.MaxNewTokens // cold start: assume the cap
	}
	if pf.keeps(r) {
		// Ablation: keep the admission-time prediction, only floored so the
		// remaining-length term stays positive.
		return max(r.PredictedLen, r.Generated+1)
	}
	v, ok := pf.sample(sampler, r)
	if multi {
		// The maximum of Samples draws; none when the first found no mass.
		for i := 1; ok && i < pf.cfg.Samples; i++ {
			w, _ := pf.sample(sampler, r)
			v = max(v, w)
		}
	}
	// No historical mass above the current length (ok false): the window
	// says this request "should have finished"; clampPrediction predicts the
	// cap.
	return clampPrediction(r, v, ok)
}

// sample takes one value of r's prediction from the sampler: a running (or
// evicted-and-requeued) request is conditioned on not having stopped yet,
// P(l | l > Generated), and ok is false, with nothing drawn, when no
// observation lies above it; a fresh one draws from P(l), ok always (an empty
// window gives 0 and draws nothing). draws counts the values it takes.
func (pf *PastFuture) sample(sampler *dist.Sampler, r *request.Request) (int, bool) {
	if r.Generated > 0 {
		if pf.cfg.Deterministic {
			return sampler.QuantileGreater(pf.cfg.Quantile, r.Generated)
		}
		return sampler.SampleGreater(pf.cfg.Rng, r.Generated)
	}
	if pf.cfg.Deterministic {
		return sampler.Quantile(pf.cfg.Quantile), true
	}
	return sampler.Sample(pf.cfg.Rng), true
}

var _ Scheduler = (*PastFuture)(nil)
