package cluster

import "fmt"

// PredictorKind names the planner's load-forecast model. Holt's linear-trend
// method is the only one, and the zero value.
type PredictorKind int

// HoltPredictor is Holt's linear-trend double exponential smoothing —
// extrapolates ramps one interval ahead, which is what lets the planner
// scale out *before* a building burst saturates the fleet.
const HoltPredictor PredictorKind = 0

// String implements fmt.Stringer.
func (k PredictorKind) String() string {
	if k == HoltPredictor {
		return "holt"
	}
	return fmt.Sprintf("predictor(%d)", int(k))
}

// Holt's smoothing constants for the level and the trend.
const (
	holtAlpha = 0.6
	holtBeta  = 0.35
)

// holt forecasts one load signal (arrival rate, mean input length, mean
// output length) from the per-interval observations the planner feeds it: a
// smoothed level plus a smoothed per-interval trend, forecast one interval
// ahead. The zero value is ready to use.
type holt struct {
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
		h.level = holtAlpha*v + (1-holtAlpha)*(h.level+h.trend)
		h.trend = holtBeta*(h.level-prevLevel) + (1-holtBeta)*h.trend
	}
	h.observations++
}

// Predict returns the forecast for the next interval; it may be negative on
// a downward trend, and the planner clamps it.
func (h *holt) Predict() float64 { return h.level + h.trend }
