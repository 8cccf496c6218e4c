package dist

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/rng"
)

// BenchmarkWindowSampler measures the always-sorted CDF and its rank index:
// "add" is one Add on a full window (once per finished request: evict,
// insert, one copy over the span between their ranks and one pass over the
// rank table between their values), "queries" the four query kinds at fixed
// conditioning points, and "greater" the two conditional queries alone at a
// conditioning point that moves on every call, the way the admission loop
// and the routing probes issue them — one per running request or candidate.
// Sampler() itself is a field address and is not timed.
func BenchmarkWindowSampler(b *testing.B) {
	const window = 1000
	fill := func() *Window {
		w := NewWindow(window)
		r := rng.New(1)
		for i := 0; i < window; i++ {
			w.Add(r.Intn(4096))
		}
		return w
	}

	b.Run("add", func(b *testing.B) {
		w := fill()
		r := rng.New(3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Add(r.Intn(4096))
			_ = w.Sampler()
		}
	})

	b.Run("queries", func(b *testing.B) {
		w := fill()
		s := w.Sampler()
		r := rng.New(2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.Sample(r)
			_, _ = s.SampleGreater(r, 2048)
			_, _ = s.QuantileGreater(0.9, 1024)
			_ = s.Quantile(0.9)
		}
	})

	b.Run("greater", func(b *testing.B) {
		w := fill()
		s := w.Sampler()
		r := rng.New(2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := i * 61 & 4095
			v, _ := s.SampleGreater(r, g)
			q, _ := s.QuantileGreater(0.9, g)
			sink += v + q
		}
	})
}

var sink int
