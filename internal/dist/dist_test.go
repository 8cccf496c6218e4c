package dist

import (
	"sort"
	"testing"

	"github.com/lightllm-go/lightllm/internal/rng"
)

func windowOf(capacity int, values ...int) *Window {
	w := NewWindow(capacity)
	for _, v := range values {
		w.Add(v)
	}
	return w
}

func TestNewWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWindow(0) did not panic")
		}
	}()
	NewWindow(0)
}

func TestEmptyWindowSampler(t *testing.T) {
	s := NewWindow(8).Sampler()
	r := rng.New(1)
	if s.Len() != 0 {
		t.Fatalf("empty sampler Len = %d", s.Len())
	}
	if got := s.Sample(r); got != 0 {
		t.Fatalf("empty Sample = %d", got)
	}
	if got := s.Quantile(0.9); got != 0 {
		t.Fatalf("empty Quantile = %d", got)
	}
	if got := s.Max(); got != 0 {
		t.Fatalf("empty Max = %d", got)
	}
	if _, ok := s.SampleGreater(r, 0); ok {
		t.Fatal("empty SampleGreater reported ok")
	}
	if _, ok := s.QuantileGreater(0.5, 0); ok {
		t.Fatal("empty QuantileGreater reported ok")
	}
}

func TestColdStartWindowBelowMinHistory(t *testing.T) {
	// The scheduler gates on Len() < MinHistory during cold start; the
	// window must report the exact count while partially filled.
	w := NewWindow(1000)
	for i := 1; i <= 15; i++ {
		w.Add(i * 10)
		if w.Len() != i {
			t.Fatalf("after %d adds Len = %d", i, w.Len())
		}
	}
	// The sampler is still fully usable below any MinHistory threshold;
	// the fallback policy lives in the scheduler, not here.
	if got := w.Sampler().Max(); got != 150 {
		t.Fatalf("cold-start Max = %d, want 150", got)
	}
}

func TestWindowEvictionAtCapacity(t *testing.T) {
	w := windowOf(3, 1, 2, 3)
	if w.Len() != 3 || w.Cap() != 3 {
		t.Fatalf("Len/Cap = %d/%d", w.Len(), w.Cap())
	}
	w.Add(4) // evicts 1
	w.Add(5) // evicts 2
	if w.Len() != 3 {
		t.Fatalf("Len after eviction = %d", w.Len())
	}
	s := w.Sampler()
	if got := s.Quantile(0); got != 3 {
		t.Fatalf("min after eviction = %d, want 3 (1 and 2 evicted)", got)
	}
	if got := s.Max(); got != 5 {
		t.Fatalf("max after eviction = %d, want 5", got)
	}
}

// naiveSampler is the reference the incremental CDF is checked against: it
// re-sorts the window's arrival-order contents from scratch and answers
// every query by linear scan.
type naiveSampler []int

func naiveOf(w *Window) naiveSampler {
	v := w.Values()
	sort.Ints(v)
	return v
}

// above returns the observations strictly greater than x, ascending.
func (n naiveSampler) above(x int) naiveSampler {
	for i, v := range n {
		if v > x {
			return n[i:]
		}
	}
	return nil
}

// quantile scans for the smallest value whose CDF reaches q.
func (n naiveSampler) quantile(q float64) int {
	for i, v := range n {
		if float64(i+1)/float64(len(n)) >= q {
			return v
		}
	}
	return n[len(n)-1]
}

// checkAgainstOracle compares the window's live sampler with the naive
// reference: the CDF array itself, then every query kind at conditioning
// points and quantiles around the window's support.
func checkAgainstOracle(t testing.TB, w *Window, seed uint64) {
	t.Helper()
	want := naiveOf(w)
	s := w.Sampler()
	if s.Len() != len(want) || w.Len() != len(want) {
		t.Fatalf("Len = %d (window %d), want %d", s.Len(), w.Len(), len(want))
	}
	for i, v := range want {
		if s.sorted[i] != v {
			t.Fatalf("CDF = %v, want sort(Values()) = %v", s.sorted, []int(want))
		}
	}
	if len(s.le) > rankBound {
		t.Fatalf("rank index holds %d entries, bound %d", len(s.le), rankBound)
	}
	if len(want) == 0 {
		return
	}
	// The table is there exactly while everything held allows one (every
	// window these tests build is small enough to count in int32).
	if inside := want[0] >= 0 && want[len(want)-1] < rankBound; (s.le != nil) != inside {
		t.Fatalf("rank table kept = %v over %v", s.le != nil, []int(want))
	}
	// The one rank function, table or search, against the definition: at the
	// edges of the support and on both sides of every observation.
	rankAt := func(g int) {
		if got, ref := s.rank(g), sort.SearchInts(want, g+1); got != ref {
			t.Fatalf("rank(%d) = %d, want %d over %v (table %v)", g, got, ref, []int(want), s.le != nil)
		}
	}
	rankAt(-1)
	rankAt(want[len(want)-1] + 1)
	for _, v := range want {
		rankAt(v - 1)
		rankAt(v)
		rankAt(v + 1)
	}
	if got := s.Max(); got != want[len(want)-1] {
		t.Fatalf("Max = %d, want %d", got, want[len(want)-1])
	}
	// Dyadic quantiles: q·n and (i+1)/n are then exact in floating point, so
	// the reference's CDF scan and the sampler's ceil(q·n) cannot disagree
	// over a rounding error.
	quantiles := []float64{0, 0.25, 0.5, 0.75, 0.875, 1}
	for _, q := range quantiles {
		if got, ref := s.Quantile(q), want.quantile(q); got != ref {
			t.Fatalf("Quantile(%v) = %d, want %d over %v", q, got, ref, []int(want))
		}
	}
	points := []int{want[0] - 1, want[0], want[len(want)/2], want[len(want)-1] - 1, want[len(want)-1]}
	for _, g := range points {
		tail := want.above(g)
		for _, q := range quantiles {
			got, ok := s.QuantileGreater(q, g)
			if ok != (len(tail) > 0) || (ok && got != tail.quantile(q)) {
				t.Fatalf("QuantileGreater(%v, %d) = %d,%v, want tail %v", q, g, got, ok, []int(tail))
			}
		}
		// Same seed on both sides: the draw must index the same tail.
		got, ok := s.SampleGreater(rng.New(seed), g)
		if ok != (len(tail) > 0) || (ok && got != tail[rng.New(seed).Intn(len(tail))]) {
			t.Fatalf("SampleGreater(%d) = %d,%v, want a draw from %v", g, got, ok, []int(tail))
		}
	}
}

// TestWindowAddMatchesSortOracle is the property the incremental CDF and its
// rank index stand on: after every Add of a random sequence the sorted array
// equals sort(Values()) and every query equals the naive reference — across
// tiny and production capacities, heavy duplicates (so evicted and inserted
// values often tie, including old == new), and several wrap-arounds. Each
// sequence runs twice: from zero up, which keeps the rank table (and, at
// support 100000, runs it into its bound and back under), and centred on
// zero, where negative observations drop it and their eviction rebuilds it,
// time and again at the small capacities.
func TestWindowAddMatchesSortOracle(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 1000} {
		for _, support := range []int{1, 3, 50, 5000, 100000} {
			for _, offset := range []int{0, support / 2} {
				w := NewWindow(capacity)
				r := rng.New(uint64(capacity*131 + support))
				adds := 4*capacity + 3 // several full wraps
				every := 1
				if capacity > 100 {
					every = 37 // the oracle is O(n log n) per check
				}
				outside := 0
				for i := 0; i < adds; i++ {
					v := r.Intn(support) - offset
					if v < 0 || v >= rankBound {
						outside++
					}
					w.Add(v)
					if w.Generation() != uint64(i+1) {
						t.Fatalf("generation = %d after %d adds", w.Generation(), i+1)
					}
					if i%every == 0 || i >= adds-3 {
						checkAgainstOracle(t, w, uint64(i))
					}
				}
				if drops := w.RankDrops(); drops > outside || (drops == 0) != (outside == 0) {
					t.Fatalf("capacity %d support %d offset %d: %d drops for %d observations outside the bound", capacity, support, offset, drops, outside)
				}
			}
		}
	}
}

// TestRankIndexBound pins the table's limits: it grows to the largest
// observation seen and no further; an observation at the bound or below zero
// drops it, counted, for as long as the window holds one; it comes back, built
// from what the window holds then, with the Add that evicts the last of them;
// and the answers never change.
func TestRankIndexBound(t *testing.T) {
	w := windowOf(4, 3, rankBound-1, 0)
	if got := len(w.Sampler().le); got != rankBound {
		t.Fatalf("table holds %d entries after observing %d, want %d", got, rankBound-1, rankBound)
	}
	checkAgainstOracle(t, w, 1)
	for _, outside := range []int{rankBound, -1, 1 << 40} {
		w := windowOf(2, 5, 9)
		w.Add(outside)
		if w.Sampler().le != nil || w.RankDrops() != 1 {
			t.Fatalf("observation %d: rank table kept = %v after %d drops", outside, w.Sampler().le != nil, w.RankDrops())
		}
		checkAgainstOracle(t, w, 2)
		w.Add(7) // evicts 5: the outlier is still held
		if w.Sampler().le != nil {
			t.Fatalf("rank table came back while the window still held %d", outside)
		}
		checkAgainstOracle(t, w, 3)
		w.Add(8) // evicts the outlier
		if got := len(w.Sampler().le); got != 9 || w.RankDrops() != 1 {
			t.Fatalf("table holds %d entries after %d left a window of {7, 8} (%d drops), want 9 and 1", got, outside, w.RankDrops())
		}
		checkAgainstOracle(t, w, 4)
		w.Add(300) // and it grows and shifts like one that was never dropped
		w.Add(2)
		checkAgainstOracle(t, w, 5)
		w.Add(outside)
		w.Add(-3) // two outliers held: the first one leaving is not enough
		w.Add(1)
		if w.Sampler().le != nil || w.RankDrops() != 2 {
			t.Fatalf("rank table kept = %v with -3 still held, %d drops", w.Sampler().le != nil, w.RankDrops())
		}
		w.Add(4)
		if w.Sampler().le == nil {
			t.Fatal("rank table did not come back after both outliers left")
		}
		checkAgainstOracle(t, w, 6)
	}
}

// TestConditionalDrawsGolden replays 10k interleaved Adds and conditional
// queries from one seed and compares a running hash of every answer with the
// value recorded before the rank index existed (commit f9ec57c, where both
// queries were a binary search): the admission loop's draw sequence is
// unchanged, with the table and, on the stream with outliers, without it.
func TestConditionalDrawsGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		outliers bool
		want     uint64
	}{
		{"table", false, goldenTable},
		{"outliers", true, goldenOutliers},
	} {
		w := NewWindow(1000)
		s := w.Sampler()
		src, r := rng.New(17), rng.New(23)
		h := uint64(14695981039346656037)
		mix := func(v int, ok bool) {
			if ok {
				v = v<<1 | 1
			}
			h = (h ^ uint64(v)) * 1099511628211
		}
		for i := 0; i < 10000; i++ {
			v := src.Intn(600)
			switch src.Intn(50) {
			case 0:
				v = src.Intn(9000) // a long output: the table grows under the window
			case 1:
				if tc.outliers {
					v = []int{-1, 1 << 40, -7}[src.Intn(3)]
				}
			}
			w.Add(v)
			g := src.Intn(700) - 1
			mix(s.SampleGreater(r, g))
			mix(s.QuantileGreater(0.9, g))
			mix(s.QuantileGreater(0.5, src.Intn(10000)))
		}
		if h != tc.want {
			t.Errorf("%s: draw hash %#x, want %#x", tc.name, h, tc.want)
		}
	}
}

const (
	goldenTable    = 0x626b36cd2d1e5a5b
	goldenOutliers = 0x113312ada259988f
)

// TestSamplerIsLiveView pins the accessor contract: Sampler() hands out one
// stable pointer and that pointer reflects every later Add.
func TestSamplerIsLiveView(t *testing.T) {
	w := windowOf(2, 5)
	s := w.Sampler()
	w.Add(42)
	w.Add(7) // evicts 5
	if s != w.Sampler() {
		t.Fatal("Sampler() returned a different pointer after Add")
	}
	if s.Len() != 2 || s.Quantile(0) != 7 || s.Max() != 42 {
		t.Fatalf("held sampler reads %v, want [7 42]", s.sorted)
	}
}

// fuzzOutliers are the observations a 0xff byte selects in FuzzWindowAdd:
// both sides of each edge of the rank table's range, and magnitudes no table
// could be sized by.
var fuzzOutliers = []int{-1, 1 << 40, rankBound - 1, rankBound, -1 << 40, rankMinCap}

// FuzzWindowAdd drives a window of fuzzer-chosen capacity with
// fuzzer-chosen observations and checks the oracle — sorted array, rank at
// and around every observation, every query, the table's bound — after every
// Add. Each input byte pair is one observation; a small modulus keeps ties
// frequent, and a pair led by 0xff picks from fuzzOutliers instead.
func FuzzWindowAdd(f *testing.F) {
	f.Add(uint8(1), []byte{0, 1, 0, 1, 0, 0})
	f.Add(uint8(2), []byte{9, 9, 9, 9, 9, 9, 9, 9})
	f.Add(uint8(7), []byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, capacity uint8, data []byte) {
		w := NewWindow(int(capacity)%64 + 1)
		for i := 0; i+1 < len(data); i += 2 {
			v := (int(data[i])<<8 | int(data[i+1])) % 97
			if data[i] == 0xff {
				v = fuzzOutliers[int(data[i+1])%len(fuzzOutliers)]
			}
			w.Add(v)
			checkAgainstOracle(t, w, uint64(i))
		}
	})
}

func TestQuantileBoundaries(t *testing.T) {
	// 90×10 and 10×50: the 0.9 quantile is the 90th of 100 sorted values
	// (index 89) — still 10. This anchors the quantile convention the
	// deterministic scheduler depends on.
	w := NewWindow(100)
	for i := 0; i < 90; i++ {
		w.Add(10)
	}
	for i := 0; i < 10; i++ {
		w.Add(50)
	}
	s := w.Sampler()
	if got := s.Quantile(0.9); got != 10 {
		t.Fatalf("Quantile(0.9) = %d, want 10", got)
	}
	if got := s.Quantile(0.91); got != 50 {
		t.Fatalf("Quantile(0.91) = %d, want 50", got)
	}
	if got := s.Quantile(0); got != 10 {
		t.Fatalf("Quantile(0) = %d, want min", got)
	}
	if got := s.Quantile(1); got != 50 {
		t.Fatalf("Quantile(1) = %d, want max", got)
	}
	// Clamped outside [0,1].
	if got := s.Quantile(-0.5); got != 10 {
		t.Fatalf("Quantile(-0.5) = %d", got)
	}
	if got := s.Quantile(1.5); got != 50 {
		t.Fatalf("Quantile(1.5) = %d", got)
	}
}

func TestConditionalNoMassAboveSupport(t *testing.T) {
	w := windowOf(10, 8, 8, 8)
	s := w.Sampler()
	r := rng.New(7)
	if _, ok := s.SampleGreater(r, 8); ok {
		t.Fatal("SampleGreater above support reported ok")
	}
	if _, ok := s.QuantileGreater(0.9, 8); ok {
		t.Fatal("QuantileGreater above support reported ok")
	}
	// Exactly at the boundary: mass strictly above 7 exists.
	if v, ok := s.SampleGreater(r, 7); !ok || v != 8 {
		t.Fatalf("SampleGreater(7) = %d,%v, want 8,true", v, ok)
	}
	if v, ok := s.QuantileGreater(0.5, 7); !ok || v != 8 {
		t.Fatalf("QuantileGreater(0.5, 7) = %d,%v, want 8,true", v, ok)
	}
}

func TestConditionalDistribution(t *testing.T) {
	w := windowOf(10, 10, 20, 30, 40)
	s := w.Sampler()
	if v, ok := s.QuantileGreater(0, 20); !ok || v != 30 {
		t.Fatalf("QuantileGreater(0, 20) = %d,%v, want 30", v, ok)
	}
	if v, ok := s.QuantileGreater(1, 20); !ok || v != 40 {
		t.Fatalf("QuantileGreater(1, 20) = %d,%v, want 40", v, ok)
	}
	r := rng.New(3)
	for i := 0; i < 100; i++ {
		v, ok := s.SampleGreater(r, 15)
		if !ok || v <= 15 {
			t.Fatalf("SampleGreater(15) = %d,%v", v, ok)
		}
	}
}

func TestSampleDrawsOnlyWindowValues(t *testing.T) {
	w := windowOf(50, 3, 7, 11)
	s := w.Sampler()
	r := rng.New(5)
	seen := map[int]bool{}
	for i := 0; i < 300; i++ {
		v := s.Sample(r)
		if v != 3 && v != 7 && v != 11 {
			t.Fatalf("Sample drew %d, not in window", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("300 draws hit %d of 3 values", len(seen))
	}
}

func TestSamplerDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64) []int {
		w := NewWindow(100)
		src := rng.New(42)
		for i := 0; i < 100; i++ {
			w.Add(src.Intn(1000))
		}
		s := w.Sampler()
		r := rng.New(seed)
		out := make([]int, 50)
		for i := range out {
			out[i] = s.Sample(r)
		}
		return out
	}
	a, b := draw(9), draw(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSamplerSnapshotIsSorted(t *testing.T) {
	w := NewWindow(64)
	r := rng.New(11)
	for i := 0; i < 200; i++ { // wraps the ring multiple times
		w.Add(r.Intn(500))
		s := w.Sampler()
		if !sort.IntsAreSorted(s.sorted) {
			t.Fatalf("snapshot unsorted after %d adds", i+1)
		}
		if s.Len() != w.Len() {
			t.Fatalf("snapshot len %d != window len %d", s.Len(), w.Len())
		}
	}
}
