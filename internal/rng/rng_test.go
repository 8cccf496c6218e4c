package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

// TestSkipMatchesUint64: Skip(n) leaves the generator where n Uint64 calls
// would, n = 0 included, and the streams agree afterwards.
func TestSkipMatchesUint64(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 48, 193} {
		a, b := New(uint64(n)+3), New(uint64(n)+3)
		a.Uint64() // off the seed state, so Skip(0) has something to keep
		b.Uint64()
		a.Skip(n)
		for i := 0; i < n; i++ {
			b.Uint64()
		}
		if a.State() != b.State() {
			t.Fatalf("Skip(%d): state %x, %d Uint64 calls %x", n, a.State(), n, b.State())
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("Skip(%d): next value %d vs %d", n, x, y)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between independent seeds", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero seed produced repeats: %d unique of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child stream must not equal a fresh parent-seeded stream shifted by one.
	ref := New(7)
	ref.Uint64()
	same := 0
	for i := 0; i < 64; i++ {
		if child.Uint64() == ref.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("child stream correlated with parent: %d matches", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(7) bucket %d count %d far from uniform", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(6)
	for i := 0; i < 10000; i++ {
		v := r.IntRange(10, 20)
		if v < 10 || v > 20 {
			t.Fatalf("IntRange(10,20) = %d", v)
		}
	}
	// Degenerate range.
	if v := r.IntRange(5, 5); v != 5 {
		t.Fatalf("IntRange(5,5) = %d", v)
	}
}

func TestIntRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntRange(2,1) did not panic")
		}
	}()
	New(1).IntRange(2, 1)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(5, 1); v <= 0 {
			t.Fatalf("LogNormal produced %v", v)
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(10)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(3, 0.8)
	}
	// Median of lognormal(mu, sigma) is e^mu; estimate with counting.
	med := math.Exp(3)
	below := 0
	for _, v := range vals {
		if v < med {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("fraction below theoretical median = %v, want ~0.5", frac)
	}
}

func TestExpMean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("exp mean = %v, want ~2.5", mean)
	}
}

func TestCategorical(t *testing.T) {
	r := New(14)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("categorical ratio = %v, want ~3", ratio)
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, w := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() { _ = recover() }()
			New(1).Categorical(w)
			t.Fatalf("Categorical(%v) did not panic", w)
		}()
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(15)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency = %v", frac)
	}
}

func TestQuickFloat64InRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkLogNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.LogNormal(5, 1)
	}
}
