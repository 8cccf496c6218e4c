package cluster

import (
	"math"
	"testing"

	"github.com/lightllm-go/lightllm/internal/metrics"
)

// FuzzPlannerConfig: NewCluster either rejects a planner configuration —
// NaN, ±Inf and unknown predictor kinds included, the last always — or
// serves a small Poisson stream under it in which every arrival ends exactly
// once and every KV pool drains.
func FuzzPlannerConfig(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(6.0, 1.5, 1, 3, 5.0, 1.0, 0.8, 0, int(HoltPredictor))
	f.Add(6.0, 1.5, 2, 3, 0.0, 0.0, 0.0, 1, int(EWMAPredictor))
	f.Add(1e-9, 1e-9, 1, 3, 10.0, 0.5, 1.0, 5, int(ConstantPredictor))
	f.Add(6.0, 1.5, 1, 3, 5.0, 1.0, 0.8, 0, int(HoltPredictor)+1) // unknown kind
	f.Add(6.0, 1.5, 1, 3, 1e-300, 1.0, 0.8, 0, 0)                 // ticks that would not move the clock
	f.Add(6.0, 1.5, 1, 3, 1e-3, 1.0, 0.8, 0, 0)
	for _, x := range []float64{nan, inf, -inf} {
		f.Add(x, 1.5, 1, 3, 5.0, 1.0, 0.8, 0, 0)
		f.Add(6.0, x, 1, 3, 5.0, 1.0, 0.8, 0, 0)
		f.Add(6.0, 1.5, 1, 3, x, 1.0, 0.8, 0, 0)
		f.Add(6.0, 1.5, 1, 3, 5.0, x, 0.8, 0, 0)
		f.Add(6.0, 1.5, 1, 3, 5.0, 1.0, x, 0, 0)
	}
	f.Fuzz(func(t *testing.T, ttft, mtpot float64, lo, hi int, interval, delay, headroom float64, spare, predictor int) {
		c, err := NewCluster(ClusterConfig{Pools: []Config{{
			Replicas: replicas(3, 8_000),
			Policy:   FutureHeadroom,
			Planner: &PlannerConfig{
				SLA: metrics.SLA{TTFT: ttft, MTPOT: mtpot}, Min: lo, Max: hi,
				Interval: interval, ActivationDelay: delay, Headroom: headroom,
				Spare: spare, Predictor: PredictorKind(predictor),
			},
		}}})
		if err != nil {
			return
		}
		if k := PredictorKind(predictor); k < ConstantPredictor || k > HoltPredictor {
			t.Fatalf("accepted the unknown predictor kind %v", k)
		}
		s := served{c: c, reqs: poissonReqs(30, 10, 1)}
		s.results = c.Serve(s.reqs, 1e9)
		checkEnded(t, s, nil)
		checkPools(t, c, true)
	})
}
