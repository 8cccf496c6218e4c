package core

import (
	"math"

	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/stats"
)

// AdmitRound is one admission round that admitted something, as the engine
// hands it to its admit observers, after admission and before the prompts'
// prefill. Its slices and View are the engine's per-step scratch: read them
// during the callback, never keep them.
type AdmitRound struct {
	// View is what the scheduler was shown and what it answered: Running is
	// the batch before admission, History the window it read, PredictedPeak
	// its M* for the batch it left (0 when it predicts none).
	View *View
	// Queued is the length of the queue the scheduler was shown.
	Queued int
	// Admitted holds the requests the engine admitted, in queue order.
	Admitted []*request.Request
	// Whole reports whether the engine kept the whole prefix the scheduler
	// priced. A prefill-token trim or a fragmented pool admits fewer, and
	// leaves a batch PredictedPeak did not price.
	Whole bool
}

// MStarObserver measures the ground-truth M* of the batch every admitting
// round leaves — the running batch plus the admitted requests, each priced at
// its real output length (Table 1's "Future Required Memory") — and holds the
// scheduler's predicted M* against it. It is measurement only: nothing it
// computes feeds a decision, and an engine that attaches none computes none.
// Observe has the engine's admit-hook shape, so Engine.AddAdmitHook(o.Observe)
// attaches it.
//
// With a control scheduler it also predicts each compared batch a second time
// (the control draw): the same window and PastFuture's rules, drawn from the
// control's own RNG stream. The scheduler's rounds are the ones whose single
// draw fitted under its threshold; the control's draw of the same batch went
// through no such selection, so the gap between the two under-shares is the
// selection bias (the winner's curse) the reserve pays for.
type MStarObserver struct {
	truth      PeakEstimator
	future     stats.Online // true M* ÷ capacity, per admitting round
	schedErr   mstarError
	control    *PastFuture
	controlErr mstarError
}

// NewMStarObserver builds an observer. control, when not nil, is a
// PastFuture whose configuration the control draw follows and whose Rng it
// draws from; it must not be the scheduler or share its Rng, and it writes no
// request field.
func NewMStarObserver(control *PastFuture) *MStarObserver {
	return &MStarObserver{control: control, schedErr: newMStarError(), controlErr: newMStarError()}
}

// Observe takes one admitting round. It reads the round and writes nothing
// but the observer.
func (o *MStarObserver) Observe(_ float64, round AdmitRound) {
	v := round.View
	o.truth.Reset()
	for _, r := range v.Running {
		o.truth.PushTrue(r)
	}
	for _, r := range round.Admitted {
		o.truth.PushTrue(r)
	}
	truth := o.truth.Peak()
	o.future.Add(float64(truth) / float64(v.CapacityTokens))
	pred := v.PredictedPeak
	if pred <= 0 || truth <= 0 || !round.Whole {
		return
	}
	o.schedErr.add(pred, truth)
	if o.control != nil {
		o.controlErr.add(o.control.controlPeak(v, round.Queued, round.Admitted), truth)
	}
}

// FutureRequiredMean is the mean, over admitting rounds, of the true M* ÷
// capacity — Table 1's "Future Required Memory". Above 1, the rounds
// admitted into a batch whose future evictions were already certain.
func (o *MStarObserver) FutureRequiredMean() float64 { return o.future.Mean() }

// FutureRequiredMax is the largest of those ratios.
func (o *MStarObserver) FutureRequiredMax() float64 { return o.future.Max() }

// Scheduler reports the scheduler's predicted M* against the true one, over
// the rounds it predicted one (AdmitRound.View.PredictedPeak > 0) for a batch
// the engine kept whole.
func (o *MStarObserver) Scheduler() MStarError { return o.schedErr.report() }

// Control reports the control draw's M* against the true one, over the same
// rounds; zero without a control scheduler.
func (o *MStarObserver) Control() MStarError { return o.controlErr.report() }

// MStarError summarises a predicted M* against the true one over a set of
// admitting rounds.
type MStarError struct {
	Rounds int
	// RelErrMean and RelErrMax are the mean and the largest
	// |predicted − true| ÷ true.
	RelErrMean float64
	RelErrMax  float64
	// UnderShare is the share of rounds that predicted too little — the
	// direction that evicts.
	UnderShare float64
	// P50, P95 and P99 are quantiles of the signed (true − predicted) ÷
	// predicted, read off a log histogram to within one bucket (see
	// mstarRatioMin): positive under-predicts.
	P50, P95, P99 float64
}

// mstarRatioMin, mstarRatioMax and mstarRatioPerDecade size the signed-ratio
// histogram: |ratio| from 10⁻⁴ to 10², at 40 buckets a decade — about 6% of a
// ratio's magnitude per bucket.
const (
	mstarRatioMin       = 1e-4
	mstarRatioMax       = 100
	mstarRatioPerDecade = 40
)

type mstarError struct {
	rel    stats.Online
	under  int
	signed *stats.LogHistogram
}

func newMStarError() mstarError {
	return mstarError{signed: stats.NewLogHistogram(mstarRatioMin, mstarRatioMax, mstarRatioPerDecade)}
}

func (m *mstarError) add(pred, truth int) {
	m.rel.Add(math.Abs(float64(pred-truth)) / float64(truth))
	if pred < truth {
		m.under++
	}
	m.signed.Add(float64(truth-pred) / float64(pred))
}

func (m *mstarError) report() MStarError {
	n := m.rel.Count()
	if n == 0 {
		return MStarError{}
	}
	return MStarError{
		Rounds:     n,
		RelErrMean: m.rel.Mean(),
		RelErrMax:  m.rel.Max(),
		UnderShare: float64(m.under) / float64(n),
		P50:        m.signed.Quantile(0.50),
		P95:        m.signed.Quantile(0.95),
		P99:        m.signed.Quantile(0.99),
	}
}

// controlPeak predicts the M* of the batch an admitting round left — v's
// running batch plus admitted — as Admit priced it, drawing from pf's own
// stream. It writes no request field; pf serves as no round's scheduler.
func (pf *PastFuture) controlPeak(v *View, queued int, admitted []*request.Request) int {
	global := pf.usableSampler(v)
	multi := len(v.Running)+queued < pf.cfg.SmallBatch
	est := &pf.est
	est.Reset()
	for _, r := range v.Running {
		pred := pf.predict(global, r, multi)
		est.Push(Entry{Current: r.KVLanded(), Remaining: pred - r.Generated + r.PrefillRemaining()})
	}
	for _, r := range admitted {
		pred := pf.predict(global, r, multi)
		est.Push(Entry{Current: r.Footprint(), Remaining: pred - r.Generated})
	}
	return est.Peak()
}
