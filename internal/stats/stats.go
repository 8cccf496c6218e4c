// Package stats provides the small statistical toolkit shared by the
// scheduler, the metrics layer, and the trace-analysis experiments:
// fixed-width histograms, cosine similarity between length distributions
// (Figures 3 and 4), percentiles, and online/time-weighted aggregates.
package stats

import (
	"fmt"
	"math"
	"math/bits"
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
// its order: it reorders vs instead of a copy. It selects the two ranks the
// interpolation reads rather than sorting, in sort.Float64s' order (NaN
// first), so it returns what sorting would, bit for bit — up to which of −0
// and +0 a rank holds, an order sort.Float64s leaves unspecified too.
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
	if len(vs) == 1 {
		return vs[0]
	}
	rank := p * float64(len(vs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	selectRank(vs, lo)
	if lo == hi {
		return vs[lo]
	}
	next := vs[hi]
	for _, v := range vs[hi+1:] {
		if floatLess(v, next) {
			next = v
		}
	}
	frac := rank - float64(lo)
	return vs[lo]*(1-frac) + next*frac
}

// floatLess is sort.Float64s' order: NaN before every number.
func floatLess(a, b float64) bool {
	return a < b || a != a && b == b
}

// selectRank reorders vs so that vs[k] holds the value sort.Float64s would
// put there and nothing after it sorts before it: a quickselect with
// three-way partitions, so runs of equal values cost one pass, that falls
// back to sorting the part left when its partitions stop shrinking.
func selectRank(vs []float64, k int) {
	lo, hi := 0, len(vs)
	for budget := 2 * bits.Len(uint(len(vs))); hi-lo > 12; budget-- {
		if budget == 0 {
			sort.Float64s(vs[lo:hi])
			return
		}
		a, b, c := vs[lo], vs[lo+(hi-lo)/2], vs[hi-1]
		if floatLess(b, a) {
			a, b = b, a
		}
		if floatLess(c, b) {
			b = c
			if floatLess(b, a) {
				b = a
			}
		}
		pivot := b // the median of the three
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := vs[i]; {
			case floatLess(v, pivot):
				vs[lt], vs[i] = v, vs[lt]
				lt++
				i++
			case floatLess(pivot, v):
				gt--
				vs[gt], vs[i] = v, vs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return // vs[k] is among the values equal to the pivot
		}
	}
	sort.Float64s(vs[lo:hi])
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
	max        float64
	min        float64
	haveSample bool
}

// Add records one sample.
func (o *Online) Add(v float64) {
	o.n++
	o.mean += (v - o.mean) / float64(o.n)
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

// LogHistogram counts signed real samples in fixed buckets whose width grows
// with |x|: each decade of magnitude from lo to hi splits into perDecade
// buckets of equal log width, on either side of a zero bucket that holds
// every |x| < lo. Magnitudes at or above hi count in the outermost bucket
// of their sign. It keeps one counter per bucket and nothing per sample, so
// a run of any length costs the same memory, and Add never allocates.
type LogHistogram struct {
	lo        float64
	perDecade float64
	side      int     // buckets per sign
	counts    []int64 // [−side … −1] mirrored, zero bucket at side, [+1 … +side]
	total     int64
}

// NewLogHistogram creates a histogram for magnitudes in [lo, hi) at
// perDecade buckets per decade.
func NewLogHistogram(lo, hi float64, perDecade int) *LogHistogram {
	if !(lo > 0 && hi > lo) || perDecade <= 0 {
		panic(fmt.Sprintf("stats: log histogram needs 0 < lo < hi and buckets per decade > 0, got %v, %v, %d",
			lo, hi, perDecade))
	}
	side := int(math.Ceil(math.Log10(hi/lo) * float64(perDecade)))
	return &LogHistogram{lo: lo, perDecade: float64(perDecade), side: side, counts: make([]int64, 2*side+1)}
}

// bucket returns x's bucket index.
func (h *LogHistogram) bucket(x float64) int {
	m := math.Abs(x)
	if !(m >= h.lo) { // NaN counts as 0
		return h.side
	}
	k := min(int(math.Log10(m/h.lo)*h.perDecade), h.side-1)
	if x < 0 {
		return h.side - 1 - k
	}
	return h.side + 1 + k
}

// Add records one sample.
func (h *LogHistogram) Add(x float64) {
	h.counts[h.bucket(x)]++
	h.total++
}

// Quantile returns the midpoint of the bucket that holds the nearest-rank
// p-quantile (p in [0,1]): the ⌈p·n⌉-th smallest sample, the first when p is
// 0. The midpoint is geometric, so it lies within one bucket width of that
// sample unless the sample's magnitude reached hi; the zero bucket's is 0.
// An empty histogram returns 0.
func (h *LogHistogram) Quantile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(min(max(p, 0), 1)*float64(h.total))), 1)
	i, seen := 0, int64(0)
	for ; i < len(h.counts)-1; i++ {
		if seen += h.counts[i]; seen >= rank {
			break
		}
	}
	return h.mid(i)
}

// mid returns bucket i's geometric midpoint.
func (h *LogHistogram) mid(i int) float64 {
	switch {
	case i < h.side:
		return -h.lo * math.Pow(10, (float64(h.side-1-i)+0.5)/h.perDecade)
	case i > h.side:
		return h.lo * math.Pow(10, (float64(i-h.side-1)+0.5)/h.perDecade)
	}
	return 0
}
