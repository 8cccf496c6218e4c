package workload

import "github.com/lightllm-go/lightllm/internal/rng"

// ClassedGenerator is a Generator that labels each sample with a service
// class (task type). Build propagates the label into Request.Class so
// class-aware components (per-class TTFT budgets, span exports, traceview)
// can distinguish tenants.
type ClassedGenerator interface {
	Generator
	// SampleWithClass returns one length pair plus its class label.
	SampleWithClass(r *rng.RNG) (inputLen, outputLen int, class string)
}

// Mixed interleaves several generators with fixed weights — a multi-tenant
// API endpoint mixing task types request-by-request. Unlike Concat (whose
// phases follow each other in time, Figure 8's drifting load), Mixed is a
// stationary mixture: the *global* output distribution is multi-modal even
// though each class is well-behaved.
type Mixed struct {
	Label   string
	Parts   []Generator
	Weights []float64 // nil = uniform
}

// Name implements Generator.
func (m Mixed) Name() string { return m.Label }

// Sample implements Generator.
func (m Mixed) Sample(r *rng.RNG) (int, int) {
	in, out, _ := m.SampleWithClass(r)
	return in, out
}

// SampleWithClass implements ClassedGenerator: the class label is the
// chosen part's Name.
func (m Mixed) SampleWithClass(r *rng.RNG) (int, int, string) {
	if len(m.Parts) == 0 {
		panic("workload: Mixed with no parts")
	}
	idx := 0
	if len(m.Parts) > 1 {
		w := m.Weights
		if w == nil {
			w = make([]float64, len(m.Parts))
			for i := range w {
				w[i] = 1
			}
		}
		idx = r.Categorical(w)
	}
	in, out := m.Parts[idx].Sample(r)
	return in, out, m.Parts[idx].Name()
}

var _ ClassedGenerator = Mixed{}
