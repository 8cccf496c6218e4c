package core

import (
	"fmt"

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
type Conservative struct {
	// Overcommit scales the assumed capacity (1.0 = none; 1.5 = paper's
	// "overcommit=150%").
	Overcommit float64
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

// Admit reserves worst-case memory for every request.
func (c *Conservative) Admit(v *View, queue []*request.Request) int {
	budget := int(float64(v.CapacityTokens) * c.Overcommit)
	reserved := 0
	for _, r := range v.Running {
		reserved += r.InputLen + r.MaxNewTokens
	}
	promptNeed := 0
	admitted := 0
	for _, q := range queue {
		worst := q.InputLen + q.MaxNewTokens
		if reserved+worst > budget || promptNeed+q.Footprint() > v.FreeTokens {
			break
		}
		reserved += worst
		promptNeed += q.Footprint()
		q.PredictedLen = q.MaxNewTokens
		admitted++
	}
	return admitted
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
	_ Scheduler = (*Aggressive)(nil)
	_ Scheduler = (*Conservative)(nil)
	_ Scheduler = (*Oracle)(nil)
)
