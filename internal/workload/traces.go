package workload

import (
	"math"

	"github.com/lightllm-go/lightllm/internal/rng"
)

// TraceClass is one service/task type inside a trace: a lognormal output
// length distribution (the quantity the window-similarity study measures)
// plus an input distribution.
type TraceClass struct {
	Name            string
	InMu, InSigma   float64
	OutMu, OutSigma float64
}

// Trace synthesizes a request stream whose output-length distribution may
// drift over time, reproducing the statistical structure the paper observes
// in BurstGPT, the in-house services, and Mooncake (Figure 3):
//
//   - single-service traces (conversation, code completion, dialog) have a
//     stable class mixture → adjacent AND distant windows look alike;
//   - API traces mix several task types whose mixture drifts over hours →
//     distant windows diverge while adjacent windows stay similar.
//
// Drift is modelled as slowly varying mixture weights: weight i at progress
// p ∈ [0,1] is proportional to exp(DriftAmp·sin(2π(DriftCycles·p + phase_i))).
type Trace struct {
	Label       string
	Classes     []TraceClass
	DriftAmp    float64 // 0 = perfectly stationary mixture
	DriftCycles float64 // how many full mixture rotations across the trace
	// MuDrift adds a slow sinusoidal shift to every class's OutMu
	// (models gradual verbosity change within a single service).
	MuDrift float64
}

// Lengths generates the output lengths of n consecutive requests (the
// window-similarity study only needs outputs). Inputs are available through
// Sample for serving experiments.
func (t *Trace) Lengths(r *rng.RNG, n int) []int {
	out := make([]int, n)
	for i := range out {
		_, o := t.sampleAt(r, float64(i)/float64(n))
		out[i] = o
	}
	return out
}

func (t *Trace) sampleAt(r *rng.RNG, progress float64) (int, int) {
	idx := 0
	if len(t.Classes) > 1 {
		weights := make([]float64, len(t.Classes))
		for i := range t.Classes {
			phase := float64(i) / float64(len(t.Classes))
			weights[i] = math.Exp(t.DriftAmp * math.Sin(2*math.Pi*(t.DriftCycles*progress+phase)))
		}
		idx = r.Categorical(weights)
	}
	c := t.Classes[idx]
	mu := c.OutMu + t.MuDrift*math.Sin(2*math.Pi*progress)
	in := clampInt(int(r.LogNormal(c.InMu, c.InSigma)), 4, 8192)
	out := clampInt(int(r.LogNormal(mu, c.OutSigma)), 1, 8192)
	return in, out
}

// The six trace datasets of Figure 3. Parameters are calibrated to the
// qualitative similarity structure the paper reports, not to any
// non-public numbers.
var (
	// BurstGPTConv: ChatGPT conversation requests — one service, stable.
	BurstGPTConv = &Trace{
		Label: "BurstGPT-Conv",
		Classes: []TraceClass{
			{Name: "chat", InMu: 5.2, InSigma: 1.0, OutMu: 5.6, OutSigma: 0.8},
		},
		MuDrift: 0.06,
	}
	// BurstGPTAPI: GPT-4 API requests — a drifting mixture of task types.
	BurstGPTAPI = &Trace{
		Label: "BurstGPT-API",
		Classes: []TraceClass{
			{Name: "extract", InMu: 6.0, InSigma: 0.8, OutMu: 3.2, OutSigma: 0.6},
			{Name: "chat", InMu: 5.0, InSigma: 1.0, OutMu: 5.4, OutSigma: 0.8},
			{Name: "generate", InMu: 4.5, InSigma: 0.9, OutMu: 6.6, OutSigma: 0.6},
		},
		DriftAmp:    2.2,
		DriftCycles: 1.5,
	}
	// InHouseDialogA: an in-house human-like dialog service.
	InHouseDialogA = &Trace{
		Label: "InHouse-Dialog-A",
		Classes: []TraceClass{
			{Name: "dialog", InMu: 5.5, InSigma: 0.9, OutMu: 5.1, OutSigma: 0.7},
		},
		MuDrift: 0.05,
	}
	// InHouseDialogB: a second dialog service with longer outputs.
	InHouseDialogB = &Trace{
		Label: "InHouse-Dialog-B",
		Classes: []TraceClass{
			{Name: "dialog", InMu: 5.8, InSigma: 0.8, OutMu: 6.0, OutSigma: 0.6},
		},
		MuDrift: 0.08,
	}
	// InHouseCode: code completion — long prompts, short stable outputs.
	InHouseCode = &Trace{
		Label: "InHouse-Code",
		Classes: []TraceClass{
			{Name: "completion", InMu: 6.8, InSigma: 0.7, OutMu: 3.9, OutSigma: 0.7},
		},
		MuDrift: 0.04,
	}
	// MooncakeLike: the Mooncake dialog trace — very long contexts,
	// moderate outputs, stable.
	MooncakeLike = &Trace{
		Label: "Mooncake",
		Classes: []TraceClass{
			{Name: "dialog", InMu: 7.2, InSigma: 1.0, OutMu: 5.3, OutSigma: 0.7},
		},
		MuDrift: 0.07,
	}
)

// Figure3Traces lists the six traces in the paper's panel order.
func Figure3Traces() []*Trace {
	return []*Trace{BurstGPTConv, BurstGPTAPI, InHouseDialogA, InHouseDialogB, InHouseCode, MooncakeLike}
}
