package core

import (
	"fmt"

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
	// PerClass predicts each request from its own service-class history
	// window when the engine maintains one (engine.Config.ClassHistory) —
	// an extension for multi-tenant mixtures whose *global* distribution
	// drifts (§3.2's API-trace observation). Falls back to the global
	// window for unseen classes and during class cold start.
	PerClass bool
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

	// classMemo caches (class → sampler) for the duration of one Admit call
	// in PerClass mode: every request of a class after the first skips the
	// ClassHistory func indirection, the engine's map lookup behind it, and
	// the window's generation check. A nil value memoises "class is cold,
	// use the global sampler". Cleared (not reallocated) every step.
	classMemo map[string]*dist.Sampler
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
//  2. resamples the predicted total output length of every running request
//     from P(l > generated) — the "past" informing the present batch,
//  3. walks the queue FCFS, sampling each candidate's length from P(l),
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

	if pf.cfg.PerClass && v.ClassHistory != nil {
		if pf.classMemo == nil {
			pf.classMemo = make(map[string]*dist.Sampler)
		} else {
			clear(pf.classMemo)
		}
	}

	pf.est.Reset()
	for _, r := range v.Running {
		pred := pf.predict(pf.samplerFor(v, global, r), r, multi)
		r.PredictedLen = pred
		// Mid-chunk requests have only KVLanded() tokens resident; the
		// unprefilled prompt tail is charged as guaranteed future growth so
		// the eventual peak matches the unchunked view.
		pf.est.Push(Entry{Current: r.KVLanded(), Remaining: pred - r.Generated + r.PrefillRemaining()})
	}

	admitted := 0
	promptNeed := 0 // physical tokens the admitted prompts allocate right now
	for _, q := range queue {
		pred := pf.predict(pf.samplerFor(v, global, q), q, multi)
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

// usableSampler returns the history sampler, or nil during cold start.
func (pf *PastFuture) usableSampler(v *View) *dist.Sampler {
	if v.History == nil || v.History.Len() < pf.cfg.MinHistory {
		return nil
	}
	return v.History.Sampler()
}

// samplerFor resolves the distribution for one request: the request's
// service-class window in PerClass mode (when warm), otherwise the global
// window. Resolutions are memoised per scheduling step in classMemo.
func (pf *PastFuture) samplerFor(v *View, global *dist.Sampler, r *request.Request) *dist.Sampler {
	if !pf.cfg.PerClass || v.ClassHistory == nil {
		return global
	}
	if s, ok := pf.classMemo[r.Class]; ok {
		if s != nil {
			return s
		}
		return global
	}
	var s *dist.Sampler
	if w := v.ClassHistory(r.Class); w != nil && w.Len() >= pf.cfg.MinHistory {
		s = w.Sampler()
	}
	pf.classMemo[r.Class] = s
	if s != nil {
		return s
	}
	return global
}

// predict returns the predicted *total* output length for a request that
// has already generated r.Generated tokens. The result is always in
// (r.Generated, r.MaxNewTokens] so the remaining-length term stays positive.
func (pf *PastFuture) predict(sampler *dist.Sampler, r *request.Request, multi bool) int {
	if sampler == nil {
		return r.MaxNewTokens // cold start: assume the cap
	}
	if pf.cfg.NoResample && r.Generated > 0 && r.PredictedLen > 0 {
		// Ablation: keep the admission-time prediction, only floored so the
		// remaining-length term stays positive.
		if r.PredictedLen > r.Generated {
			return r.PredictedLen
		}
		return r.Generated + 1
	}
	draws := 1
	if multi {
		draws = pf.cfg.Samples
	}
	pred := 0
	for i := 0; i < draws; i++ {
		var v int
		var ok bool
		if r.Generated > 0 {
			// Running (or evicted-and-requeued) request: condition on the
			// fact that it has not stopped yet.
			if pf.cfg.Deterministic {
				v, ok = sampler.QuantileGreater(pf.cfg.Quantile, r.Generated)
			} else {
				v, ok = sampler.SampleGreater(pf.cfg.Rng, r.Generated)
			}
		} else {
			if pf.cfg.Deterministic {
				v, ok = sampler.Quantile(pf.cfg.Quantile), true
			} else {
				v, ok = sampler.Sample(pf.cfg.Rng), true
			}
		}
		if !ok {
			// No historical mass above the current length: the window says
			// this request "should have finished"; predict the cap.
			v = r.MaxNewTokens
		}
		if v > pred {
			pred = v
		}
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
