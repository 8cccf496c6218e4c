// Package stats provides the small statistical toolkit shared by the
// scheduler, the metrics layer, and the trace-analysis experiments:
// fixed-width histograms, cosine similarity between length distributions
// (Figures 3 and 4), percentiles, and online/time-weighted aggregates.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-width binned count of non-negative integer samples,
// used to compare output-length distributions between time windows.
type Histogram struct {
	binWidth int
	counts   []float64
	total    int
}

// NewHistogram creates a histogram with the given bin width and number of
// bins. Samples ≥ binWidth*bins fall into the last bin.
func NewHistogram(binWidth, bins int) *Histogram {
	if binWidth <= 0 || bins <= 0 {
		panic("stats: histogram needs positive bin width and bin count")
	}
	return &Histogram{binWidth: binWidth, counts: make([]float64, bins)}
}

// Add records one sample. Negative samples panic: lengths are never negative
// and a negative value indicates a bookkeeping bug upstream.
func (h *Histogram) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative histogram sample %d", v))
	}
	b := v / h.binWidth
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.total++
}

// AddAll records every sample in vs.
func (h *Histogram) AddAll(vs []int) {
	for _, v := range vs {
		h.Add(v)
	}
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() int { return h.total }

// Bins returns a copy of the raw bin counts.
func (h *Histogram) Bins() []float64 {
	out := make([]float64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Vector returns the bin counts as a probability vector (sums to 1). An
// empty histogram returns an all-zero vector.
func (h *Histogram) Vector() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = c / float64(h.total)
	}
	return out
}

// Reset clears all bins.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
}

// CosineSimilarity returns the cosine of the angle between two equal-length
// vectors. For non-negative vectors the result is in [0, 1]. Zero vectors
// yield 0.
func CosineSimilarity(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: cosine of mismatched lengths %d and %d", len(a), len(b)))
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	s := dot / (math.Sqrt(na) * math.Sqrt(nb))
	// Clamp tiny floating-point excursions outside [-1, 1].
	if s > 1 {
		s = 1
	}
	if s < -1 {
		s = -1
	}
	return s
}

// Percentile returns the p-quantile (p in [0,1]) of vs using linear
// interpolation between closest ranks. It panics on an empty input.
func Percentile(vs []float64, p float64) float64 {
	sorted := make([]float64, len(vs))
	copy(sorted, vs)
	return PercentileInPlace(sorted, p)
}

// PercentileInPlace is Percentile for a caller that owns vs and is done with
// its order: it sorts vs instead of a copy.
func PercentileInPlace(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	sort.Float64s(vs)
	if len(vs) == 1 {
		return vs[0]
	}
	rank := p * float64(len(vs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return vs[lo]
	}
	frac := rank - float64(lo)
	return vs[lo]*(1-frac) + vs[hi]*frac
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Max returns the maximum, or 0 for an empty slice.
func Max(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum, or 0 for an empty slice.
func Min(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Online accumulates count/mean/max/min incrementally without storing
// samples. The zero value is ready to use.
type Online struct {
	n          int
	mean       float64
	m2         float64
	max        float64
	min        float64
	haveSample bool
}

// Add records one sample (Welford's algorithm for the variance).
func (o *Online) Add(v float64) {
	o.n++
	d := v - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (v - o.mean)
	if !o.haveSample || v > o.max {
		o.max = v
	}
	if !o.haveSample || v < o.min {
		o.min = v
	}
	o.haveSample = true
}

// Count returns the number of samples.
func (o *Online) Count() int { return o.n }

// Mean returns the running mean (0 if empty).
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the population variance (0 if fewer than 2 samples).
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// Stddev returns the population standard deviation.
func (o *Online) Stddev() float64 { return math.Sqrt(o.Variance()) }

// Max returns the largest sample (0 if empty).
func (o *Online) Max() float64 { return o.max }

// Min returns the smallest sample (0 if empty).
func (o *Online) Min() float64 { return o.min }

// TimeWeighted accumulates the time-weighted mean of a piecewise-constant
// signal, e.g. memory occupancy between engine iterations. Call Observe with
// the signal value that held from the previous timestamp until now.
type TimeWeighted struct {
	lastT    float64
	started  bool
	weighted float64
	elapsed  float64
	max      float64
}

// Start sets the initial timestamp. Observations before Start are ignored.
func (tw *TimeWeighted) Start(t float64) {
	tw.lastT = t
	tw.started = true
}

// Observe accounts value as holding from the last timestamp to t.
// Out-of-order timestamps panic: the simulator's clock is monotone and a
// regression means a bug.
func (tw *TimeWeighted) Observe(t, value float64) {
	if !tw.started {
		tw.Start(t)
		return
	}
	if t < tw.lastT {
		panic(fmt.Sprintf("stats: time went backwards: %v < %v", t, tw.lastT))
	}
	dt := t - tw.lastT
	tw.weighted += value * dt
	tw.elapsed += dt
	tw.lastT = t
	if value > tw.max {
		tw.max = value
	}
}

// Mean returns the time-weighted mean (0 if no elapsed time).
func (tw *TimeWeighted) Mean() float64 {
	if tw.elapsed == 0 {
		return 0
	}
	return tw.weighted / tw.elapsed
}

// Max returns the largest observed value.
func (tw *TimeWeighted) Max() float64 { return tw.max }

// Elapsed returns the total observed time span.
func (tw *TimeWeighted) Elapsed() float64 { return tw.elapsed }
