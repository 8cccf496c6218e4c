package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(10, 5)
	h.Add(0)  // bin 0
	h.Add(9)  // bin 0
	h.Add(10) // bin 1
	h.Add(49) // bin 4
	h.Add(50) // clamped to bin 4
	h.Add(999)
	if v := h.Vector(); v[0] != 2.0/6 || v[1] != 1.0/6 || v[4] != 3.0/6 {
		t.Fatalf("unexpected bin shares %v", v)
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestHistogramVectorNormalized(t *testing.T) {
	h := NewHistogram(1, 4)
	h.AddAll([]int{0, 1, 1, 3})
	v := h.Vector()
	var sum float64
	for _, x := range v {
		sum += x
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("vector sums to %v", sum)
	}
	if v[1] != 0.5 {
		t.Fatalf("v[1] = %v, want 0.5", v[1])
	}
}

func TestHistogramEmptyVector(t *testing.T) {
	h := NewHistogram(1, 3)
	for _, x := range h.Vector() {
		if x != 0 {
			t.Fatal("empty histogram vector not zero")
		}
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(1, 3)
	h.Add(1)
	h.Reset()
	if h.Total() != 0 {
		t.Fatal("reset did not clear total")
	}
}

func TestHistogramNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative sample did not panic")
		}
	}()
	NewHistogram(1, 3).Add(-1)
}

func TestHistogramBadConstruction(t *testing.T) {
	for _, c := range []struct{ w, b int }{{0, 3}, {3, 0}, {-1, 1}} {
		func() {
			defer func() { _ = recover() }()
			NewHistogram(c.w, c.b)
			t.Fatalf("NewHistogram(%d,%d) did not panic", c.w, c.b)
		}()
	}
}

func TestCosineIdentical(t *testing.T) {
	v := []float64{1, 2, 3}
	if s := CosineSimilarity(v, v); math.Abs(s-1) > 1e-12 {
		t.Fatalf("cos(v,v) = %v", s)
	}
}

func TestCosineOrthogonal(t *testing.T) {
	if s := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); s != 0 {
		t.Fatalf("orthogonal cos = %v", s)
	}
}

func TestCosineScaleInvariant(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	if s := CosineSimilarity(a, b); math.Abs(s-1) > 1e-12 {
		t.Fatalf("cos of scaled = %v", s)
	}
}

func TestCosineZeroVector(t *testing.T) {
	if s := CosineSimilarity([]float64{0, 0}, []float64{1, 1}); s != 0 {
		t.Fatalf("cos with zero vector = %v", s)
	}
}

func TestCosineMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths did not panic")
		}
	}()
	CosineSimilarity([]float64{1}, []float64{1, 2})
}

func TestCosineRangeQuick(t *testing.T) {
	f := func(a, b [8]uint8) bool {
		va := make([]float64, 8)
		vb := make([]float64, 8)
		for i := 0; i < 8; i++ {
			va[i] = float64(a[i])
			vb[i] = float64(b[i])
		}
		s := CosineSimilarity(va, vb)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Percentile(vs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	vs := []float64{0, 10}
	if got := Percentile(vs, 0.3); math.Abs(got-3) > 1e-12 {
		t.Fatalf("P30 of {0,10} = %v, want 3", got)
	}
}

func TestPercentileSingle(t *testing.T) {
	if got := Percentile([]float64{7}, 0.99); got != 7 {
		t.Fatalf("P99 of singleton = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vs := []float64{3, 1, 2}
	Percentile(vs, 0.5)
	if vs[0] != 3 || vs[1] != 1 || vs[2] != 2 {
		t.Fatalf("input mutated: %v", vs)
	}
}

func TestPercentileClampsP(t *testing.T) {
	vs := []float64{1, 2}
	if got := Percentile(vs, -0.5); got != 1 {
		t.Fatalf("clamped low = %v", got)
	}
	if got := Percentile(vs, 1.5); got != 2 {
		t.Fatalf("clamped high = %v", got)
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty percentile did not panic")
		}
	}()
	Percentile(nil, 0.5)
}

func TestMeanMaxMin(t *testing.T) {
	vs := []float64{2, 8, 5}
	if Mean(vs) != 5 {
		t.Fatalf("mean = %v", Mean(vs))
	}
	if Max(vs) != 8 {
		t.Fatalf("max = %v", Max(vs))
	}
	if Min(vs) != 2 {
		t.Fatalf("min = %v", Min(vs))
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Fatal("empty aggregates should be 0")
	}
}

func TestOnline(t *testing.T) {
	var o Online
	for _, v := range []float64{1, 2, 3, 4} {
		o.Add(v)
	}
	if o.Count() != 4 {
		t.Fatalf("count = %d", o.Count())
	}
	if math.Abs(o.Mean()-2.5) > 1e-12 {
		t.Fatalf("mean = %v", o.Mean())
	}
	if o.Max() != 4 || o.Min() != 1 {
		t.Fatalf("max/min = %v/%v", o.Max(), o.Min())
	}
}

func TestOnlineNegativeValues(t *testing.T) {
	var o Online
	o.Add(-5)
	o.Add(-1)
	if o.Max() != -1 || o.Min() != -5 {
		t.Fatalf("max/min with negatives = %v/%v", o.Max(), o.Min())
	}
}

func TestOnlineMatchesBatchQuick(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		var o Online
		vs := make([]float64, len(raw))
		for i, v := range raw {
			vs[i] = float64(v)
			o.Add(float64(v))
		}
		return math.Abs(o.Mean()-Mean(vs)) < 1e-9 &&
			o.Max() == Max(vs) && o.Min() == Min(vs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Start(0)
	tw.Observe(1, 10) // 10 held for [0,1)
	tw.Observe(3, 20) // 20 held for [1,3)
	want := (10*1 + 20*2) / 3.0
	if math.Abs(tw.Mean()-want) > 1e-12 {
		t.Fatalf("time-weighted mean = %v, want %v", tw.Mean(), want)
	}
	if tw.Max() != 20 {
		t.Fatalf("max = %v", tw.Max())
	}
}

func TestTimeWeightedAutoStart(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(5, 100) // becomes the start point, no weight yet
	if tw.Mean() != 0 {
		t.Fatalf("mean before any interval = %v", tw.Mean())
	}
	tw.Observe(6, 100)
	if tw.Mean() != 100 {
		t.Fatalf("mean = %v", tw.Mean())
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	var tw TimeWeighted
	tw.Start(10)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	tw.Observe(5, 1)
}

func BenchmarkCosine256(b *testing.B) {
	v := make([]float64, 256)
	w := make([]float64, 256)
	for i := range v {
		v[i] = float64(i)
		w[i] = float64(256 - i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CosineSimilarity(v, w)
	}
}

// TestLogHistogramQuantileMatchesSortedOracle holds the histogram's
// quantiles to the nearest-rank quantile of the sorted samples: each is the
// midpoint of the bucket that holds the oracle's sample, so within one bucket
// width of it.
func TestLogHistogramQuantileMatchesSortedOracle(t *testing.T) {
	gens := map[string]func(i int) float64{
		"signed-ratio": func(i int) float64 { return 0.3 * math.Sin(float64(i)*0.7) * math.Exp(-float64(i%17)/4) },
		"positive":     func(i int) float64 { return math.Exp(float64(i%41)/5 - 6) },
		"negative":     func(i int) float64 { return -math.Exp(float64(i%29)/4 - 5) },
		"with-zeros":   func(i int) float64 { return float64(i%3-1) * 1e-6 * float64(i%5) },
	}
	for name, gen := range gens {
		for _, n := range []int{1, 2, 7, 100, 1001} {
			h := NewLogHistogram(1e-4, 100, 40)
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = gen(i)
				h.Add(vs[i])
			}
			sort.Float64s(vs)
			for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
				want := vs[max(int(math.Ceil(p*float64(n))), 1)-1]
				if got := h.Quantile(p); h.bucket(got) != h.bucket(want) {
					t.Fatalf("%s n=%d: p%v = %v in bucket %d, oracle %v in bucket %d",
						name, n, p, got, h.bucket(got), want, h.bucket(want))
				}
			}
		}
	}
}

func TestLogHistogramEdges(t *testing.T) {
	h := NewLogHistogram(1e-3, 10, 10)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	for _, x := range []float64{1e9, -1e9, 0, math.NaN()} {
		h.Add(x) // clamped into the outermost buckets or counted as 0
	}
	if lo, hi := h.Quantile(0), h.Quantile(1); lo > -8 || hi < 8 {
		t.Fatalf("clamped extremes at %v, %v; want the outermost buckets", lo, hi)
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("median of {−big, 0, NaN, +big} = %v, want the zero bucket", q)
	}
}

// sortedPercentile is PercentileInPlace as it was written before selection:
// sort, then interpolate between the two closest ranks.
func sortedPercentile(vs []float64, p float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	p = math.Min(math.Max(p, 0), 1)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TestPercentileMatchesSortOracle holds the selection to the sort it
// replaced, bit for bit, over sizes from 1 to 10⁵, inputs full of duplicates,
// infinities and NaNs, already sorted and reversed inputs, and every
// percentile the repo reads plus the ends. Zeros compare by value: which of
// −0 and +0 sits at a rank is left unspecified by sort.Float64s as well.
func TestPercentileMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ps := []float64{0, 0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || a == 0 && b == 0
	}
	for _, n := range []int{1, 2, 3, 5, 12, 13, 64, 1000, 4097, 100_000} {
		for shape := 0; shape < 6; shape++ {
			vs := make([]float64, n)
			for i := range vs {
				switch shape {
				case 0: // continuous
					vs[i] = r.NormFloat64()
				case 1: // few distinct values
					vs[i] = float64(r.Intn(4))
				case 2: // infinities and NaNs among duplicates
					vs[i] = []float64{math.Inf(-1), math.Inf(1), math.NaN(), 1, 2, -0.0, 0}[r.Intn(7)]
				case 3: // sorted
					vs[i] = float64(i / 3)
				case 4: // reversed
					vs[i] = float64(n - i)
				case 5: // all equal
					vs[i] = 7
				}
			}
			for _, p := range append(ps, r.Float64()) {
				want := sortedPercentile(vs, p)
				got := PercentileInPlace(append([]float64(nil), vs...), p)
				if !same(got, want) {
					t.Fatalf("n=%d shape %d p=%v: selection %v, sort %v", n, shape, p, got, want)
				}
			}
		}
	}
}
