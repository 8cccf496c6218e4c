package core

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/request"
)

// Aggressive is the vLLM-style scheduler (§2.4): it admits on *current*
// memory usage only, ignoring the memory the batch's outputs will need.
// Watermark is the usage fraction it fills up to (paper Table 1 sweeps
// 90%, 95%, 99%). High utilisation; evictions follow when outputs grow.
type Aggressive struct {
	// Watermark is the fill target in (0, 1].
	Watermark float64
}

// NewAggressive validates the watermark.
func NewAggressive(watermark float64) (*Aggressive, error) {
	if watermark <= 0 || watermark > 1 {
		return nil, fmt.Errorf("core: watermark %v outside (0,1]", watermark)
	}
	return &Aggressive{Watermark: watermark}, nil
}

// MustNewAggressive is NewAggressive for statically valid values.
func MustNewAggressive(watermark float64) *Aggressive {
	a, err := NewAggressive(watermark)
	if err != nil {
		panic(err)
	}
	return a
}

// Name implements Scheduler.
func (a *Aggressive) Name() string {
	return fmt.Sprintf("aggressive(watermark=%d%%)", int(a.Watermark*100+0.5))
}

// Admit fills the pool with prompts up to watermark × capacity.
func (a *Aggressive) Admit(v *View, queue []*request.Request) int {
	budget := int(float64(v.CapacityTokens) * a.Watermark)
	used := v.UsedTokens
	promptNeed := 0
	admitted := 0
	for _, q := range queue {
		fp := q.Footprint()
		if used+fp > budget || promptNeed+fp > v.FreeTokens {
			break
		}
		used += fp
		promptNeed += fp
		q.PredictedLen = q.Generated + 1 // aggressive assumes ~no further output
		admitted++
	}
	return admitted
}

// Conservative is the TGI / DeepSpeed-MII-style scheduler (§2.4): every
// request, running or candidate, reserves input + max_new_tokens. With
// Overcommit = 1 it can never cause an eviction; the paper also evaluates
// overcommitted variants (150%, 125%) that assume more memory than exists.
// Not safe for concurrent use (the last refusal's certificate).
type Conservative struct {
	// Overcommit scales the assumed capacity (1.0 = none; 1.5 = paper's
	// "overcommit=150%").
	Overcommit float64

	// cert is the last round's refusal of the head on the budget, kept for
	// the rounds of the same View.Epoch after it (RefusesAgain); its epoch
	// is 0 when the last round did not refuse that way.
	cert budgetRefusal
}

// budgetRefusal is what a refusal of the queue's head on the budget proves
// for the later rounds of its Epoch: the batch kept its members, so their
// reservation is the same, and the head, the budget and the engine — named
// by its window — are checked.
type budgetRefusal struct {
	epoch  uint64
	head   *request.Request
	n      int
	window *dist.Window
	budget int
}

// NewConservative validates the overcommit factor.
func NewConservative(overcommit float64) (*Conservative, error) {
	if overcommit < 1 {
		return nil, fmt.Errorf("core: overcommit %v below 1", overcommit)
	}
	return &Conservative{Overcommit: overcommit}, nil
}

// MustNewConservative is NewConservative for statically valid values.
func MustNewConservative(overcommit float64) *Conservative {
	c, err := NewConservative(overcommit)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Scheduler.
func (c *Conservative) Name() string {
	if c.Overcommit == 1 {
		return "conservative"
	}
	return fmt.Sprintf("conservative(overcommit=%d%%)", int(c.Overcommit*100+0.5))
}

// Admit reserves worst-case memory for every request. A round of the same
// View.Epoch as a refusal of the head on the budget is refused again in O(1)
// (RefusesAgain).
func (c *Conservative) Admit(v *View, queue []*request.Request) int {
	if len(queue) == 0 {
		return 0
	}
	if c.RefusesAgain(RepeatRound{Epoch: v.Epoch, Head: queue[0], Running: len(v.Running),
		History: v.History, CapacityTokens: v.CapacityTokens}) {
		return 0
	}
	c.cert.epoch = 0
	budget := int(float64(v.CapacityTokens) * c.Overcommit)
	reserved := 0
	for _, r := range v.Running {
		reserved += r.InputLen + r.MaxNewTokens
	}
	promptNeed := 0
	admitted := 0
	for i, q := range queue {
		worst := q.InputLen + q.MaxNewTokens
		if reserved+worst > budget {
			if i == 0 && v.Epoch != 0 {
				c.cert = budgetRefusal{epoch: v.Epoch, head: q, n: len(v.Running), window: v.History, budget: budget}
			}
			break
		}
		if promptNeed+q.Footprint() > v.FreeTokens {
			break
		}
		reserved += worst
		promptNeed += q.Footprint()
		q.PredictedLen = q.MaxNewTokens
		admitted++
	}
	return admitted
}

// RefusesAgain implements RepeatRefuser: it refuses a round of the same
// Epoch, head, batch size, window and budget as the last round's refusal of
// the head on the budget. Between the two the batch only decoded, and a
// request's reservation — input + max_new_tokens — does not move as it
// decodes, so the head's reservation still does not fit beside the batch's.
// Admit asks it first.
func (c *Conservative) RefusesAgain(r RepeatRound) bool {
	k := &c.cert
	return r.Epoch != 0 && k.epoch == r.Epoch && k.head == r.Head && k.n == r.Running && k.window == r.History &&
		k.budget == int(float64(r.CapacityTokens)*c.Overcommit)
}

// Oracle is the theoretical optimum (Table 1's first row): it evaluates the
// exact future peak memory using the hidden ground-truth output lengths.
// With exact knowledge M* is never exceeded, so it never causes an eviction
// while admitting strictly more than the conservative scheduler.
// Not safe for concurrent use (reused peak-estimator scratch).
type Oracle struct {
	est PeakEstimator
}

// NewOracle returns the oracle scheduler.
func NewOracle() *Oracle { return &Oracle{} }

// Name implements Scheduler.
func (o *Oracle) Name() string { return "oracle" }

// Admit admits while the ground-truth future peak fits in capacity.
func (o *Oracle) Admit(v *View, queue []*request.Request) int {
	o.est.Reset()
	for _, r := range v.Running {
		o.est.PushTrue(r)
	}
	promptNeed := 0
	admitted := 0
	for _, q := range queue {
		cand := Entry{Current: q.Footprint(), Remaining: q.RemainingTrue()}
		if promptNeed+q.Footprint() > v.FreeTokens {
			break
		}
		if o.est.Exceeds(cand, v.CapacityTokens) {
			break
		}
		o.est.Push(cand)
		promptNeed += q.Footprint()
		q.PredictedLen = q.TrueOutputLen
		admitted++
	}
	if admitted > 0 {
		v.PredictedPeak = o.est.Peak()
	}
	return admitted
}

var (
	_ Scheduler     = (*Aggressive)(nil)
	_ Scheduler     = (*Conservative)(nil)
	_ Scheduler     = (*Oracle)(nil)
	_ RepeatRefuser = (*Conservative)(nil)
	_ RepeatRefuser = (*PastFuture)(nil)
)
