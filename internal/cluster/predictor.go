package cluster

import "fmt"

// Predictor forecasts the next adjustment interval's value of one load
// signal (arrival rate, mean input length, mean output length) from the
// windowed per-interval observations the fleet feeds it — the load-
// prediction stage of an SLA-driven autoscaler (NVIDIA Dynamo's planner
// uses constant/ARIMA/Prophet; the constant, EWMA, and Holt linear-trend
// models here cover the same stable/smoothed/trending regimes without
// external fitting dependencies).
type Predictor interface {
	// Observe feeds one completed interval's observed value.
	Observe(v float64)
	// Predict returns the forecast for the next interval. Implementations
	// may return negative values on a downward trend; callers clamp.
	Predict() float64
}

// PredictorKind names a Predictor model.
type PredictorKind int

const (
	// ConstantPredictor assumes the next interval equals the last one —
	// right for stable load and long adjustment intervals.
	ConstantPredictor PredictorKind = iota
	// EWMAPredictor exponentially smooths the observations — robust to
	// noise, lags trends.
	EWMAPredictor
	// HoltPredictor is Holt's linear-trend double exponential smoothing —
	// extrapolates ramps one interval ahead, which is what lets the planner
	// scale out *before* a building burst saturates the fleet.
	HoltPredictor
)

// String implements fmt.Stringer.
func (k PredictorKind) String() string {
	switch k {
	case ConstantPredictor:
		return "constant"
	case EWMAPredictor:
		return "ewma"
	case HoltPredictor:
		return "holt"
	default:
		return fmt.Sprintf("predictor(%d)", int(k))
	}
}

// New builds a fresh predictor instance of this kind with default smoothing
// parameters (one instance per load signal). An unknown kind panics, naming
// it: PlannerConfig validation rejects one before a planner is built, so only
// a caller that skipped it gets here.
func (k PredictorKind) New() Predictor {
	switch k {
	case ConstantPredictor:
		return &constant{}
	case EWMAPredictor:
		return &ewma{alpha: 0.5}
	case HoltPredictor:
		return &holt{alpha: 0.6, beta: 0.35}
	default:
		panic(fmt.Sprintf("cluster: New of unknown %v", k))
	}
}

// constant predicts the last observation.
type constant struct {
	last float64
}

func (c *constant) Observe(v float64) { c.last = v }
func (c *constant) Predict() float64  { return c.last }

// ewma predicts the exponentially weighted mean of the observations.
type ewma struct {
	alpha  float64
	level  float64
	primed bool
}

func (e *ewma) Observe(v float64) {
	if !e.primed {
		e.level, e.primed = v, true
		return
	}
	e.level = e.alpha*v + (1-e.alpha)*e.level
}

func (e *ewma) Predict() float64 { return e.level }

// holt is Holt's linear-trend method: a smoothed level plus a smoothed
// per-interval trend, forecast one interval ahead.
type holt struct {
	alpha, beta  float64
	level, trend float64
	observations int
}

func (h *holt) Observe(v float64) {
	switch h.observations {
	case 0:
		h.level = v
	case 1:
		h.trend = v - h.level
		h.level = v
	default:
		prevLevel := h.level
		h.level = h.alpha*v + (1-h.alpha)*(h.level+h.trend)
		h.trend = h.beta*(h.level-prevLevel) + (1-h.beta)*h.trend
	}
	h.observations++
}

func (h *holt) Predict() float64 { return h.level + h.trend }
