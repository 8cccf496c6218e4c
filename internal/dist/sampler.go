package dist

import (
	"sort"

	"github.com/lightllm-go/lightllm/internal/rng"
)

// Sampler answers distribution queries over a Window's contents. Obtain
// one via Window.Sampler(); the zero value behaves as a sampler over an
// empty window. Every query is a rank (one load from the rank index) and an
// index into the window's sorted array, and performs no heap allocations.
type Sampler struct {
	sorted []int // window contents, ascending: the empirical CDF
	// le and base are the rank index, in blocks of rankBlock values:
	// base[g>>rankBlockShift] + le[g] observations are ≤ g, for every g in
	// [0, len(le)), and len(le) exceeds every observation held. base[b]
	// counts the observations below block b's first value, le[g] those from
	// there up to g. Both are nil when the window ranks by binary search
	// instead — it holds an observation outside [0, rankBound), or is the
	// zero Sampler.
	le   []int32
	base []int32
}

const (
	// rankBound caps the rank index at 256 KiB per window, far above any
	// output length a served model produces.
	rankBound = 1 << 16
	// rankMinCap is the table's first capacity; short-output windows never
	// grow past it.
	rankMinCap = 256
	// rankBlock values share one base count. An Add rewrites at most two
	// partial blocks of in-block counts and the bases between them.
	rankBlockShift = 6
	rankBlock      = 1 << rankBlockShift
)

// rankBlocks is the number of blocks that n table entries span.
func rankBlocks(n int) int { return (n + rankBlock - 1) >> rankBlockShift }

// The rank of g is the number of observations ≤ g, which is also the index
// of the first observation > g in the sorted array. rankInside answers it for
// a g the table holds (ok false for any other) and rankOutside for the rest;
// they are two functions so that the first inlines into the queries.
func (s *Sampler) rankInside(g int) (int, bool) {
	if uint(g) < uint(len(s.le)) {
		return int(s.base[g>>rankBlockShift] + s.le[g]), true
	}
	return 0, false
}

// rankOutside is the rank of a g the table does not hold: either g lies
// beyond every observation on one side, or there is no table and the sorted
// array is searched.
func (s *Sampler) rankOutside(g int) int {
	switch {
	case s.le == nil:
		return sort.SearchInts(s.sorted, g+1)
	case g < 0:
		return 0
	}
	return len(s.sorted)
}

// atLeast is the index of the first observation ≥ x in the sorted array,
// sort.SearchInts(sorted, x): the rank of x−1, read off the rank index when
// there is one. Every observation then lies in [0, len(le)), so the index is
// 0 for any x ≤ 0 and len(sorted) for any x past the table.
func (s *Sampler) atLeast(x int) int {
	if s.le == nil {
		return sort.SearchInts(s.sorted, x)
	}
	if x <= 0 {
		return 0
	}
	if i, ok := s.rankInside(x - 1); ok {
		return i
	}
	return len(s.sorted)
}

// cover prepares the rank index for an Add of v to a window holding n
// observations: it extends the table past v, every new entry counting all n
// (none of them reaches that far), or drops the table when v lies outside
// [0, rankBound). It reports whether there is a table left to update.
func (s *Sampler) cover(v, n int) bool {
	if s.le == nil {
		return false
	}
	if v < 0 || v >= rankBound {
		s.le, s.base = nil, nil
		return false
	}
	if have := len(s.le); v >= have {
		if v >= cap(s.le) {
			c := min(max(2*cap(s.le), v+1), rankBound)
			le := make([]int32, have, c)
			copy(le, s.le)
			base := make([]int32, len(s.base), rankBlocks(c))
			copy(base, s.base)
			s.le, s.base = le, base
		}
		s.le = s.le[:v+1]
		// A new block starts above every observation: all n lie below it.
		for len(s.base) < rankBlocks(v+1) {
			s.base = append(s.base, int32(n))
		}
		for g := have; g <= v; g++ {
			s.le[g] = int32(n) - s.base[g>>rankBlockShift]
		}
	}
	return true
}

// reindex builds the rank index from the sorted array, whose observations
// all lie in [0, rankBound).
func (s *Sampler) reindex() {
	top := s.sorted[len(s.sorted)-1]
	s.le = make([]int32, top+1, max(top+1, rankMinCap))
	s.base = make([]int32, 0, rankBlocks(cap(s.le)))
	i := 0
	for g := range s.le {
		if g&(rankBlock-1) == 0 {
			s.base = append(s.base, int32(i)) // i observations lie below g
		}
		for i < len(s.sorted) && s.sorted[i] <= g {
			i++
		}
		s.le[g] = int32(i) - s.base[g>>rankBlockShift]
	}
}

// shift adds d to the number of observations ≤ g for every g in [lo, hi),
// where 0 ≤ lo ≤ hi ≤ len(le): the in-block counts from lo to the end of its
// block, the bases of the blocks that start in (lo, hi], and, since those
// bases now count for all of their block, minus d on the in-block counts from
// hi to the end of hi's block. That is at most two partial blocks and
// (hi−lo)/rankBlock bases.
func (s *Sampler) shift(lo, hi int, d int32) {
	bl, bh := lo>>rankBlockShift, hi>>rankBlockShift
	if bl == bh {
		addTo(s.le[lo:hi], d)
		return
	}
	addTo(s.le[lo:(bl+1)<<rankBlockShift], d)
	addTo(s.base[bl+1:min(bh+1, len(s.base))], d)
	addTo(s.le[hi:min((bh+1)<<rankBlockShift, len(s.le))], -d)
}

// addTo adds d to every count in t.
func addTo(t []int32, d int32) {
	for i := range t {
		t[i] += d
	}
}

// Len returns the number of observations in the window.
func (s *Sampler) Len() int { return len(s.sorted) }

// Max returns the largest observation, or 0 for an empty window.
func (s *Sampler) Max() int {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[len(s.sorted)-1]
}

// Sample draws uniformly from the window — an i.i.d. draw from the
// empirical P(l). It returns 0 for an empty window.
func (s *Sampler) Sample(r *rng.RNG) int {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[r.Intn(len(s.sorted))]
}

// Quantile returns the smallest observed value whose cumulative probability
// reaches q (clamped to [0, 1]), or 0 for an empty window.
func (s *Sampler) Quantile(q float64) int {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[quantileIndex(q, len(s.sorted))]
}

// SampleGreater draws from the conditional distribution P(l | l > greater) —
// Equation 1's dynamic update for a request that has already generated
// `greater` tokens without stopping. ok is false when the window holds no
// observation above the conditioning point (the scheduler then falls back
// to the request's max_new_tokens cap).
func (s *Sampler) SampleGreater(r *rng.RNG, greater int) (v int, ok bool) {
	i, ok := s.rankInside(greater) // first observation > greater
	if !ok {
		i = s.rankOutside(greater)
	}
	if i == len(s.sorted) {
		return 0, false
	}
	return s.sorted[i+r.Intn(len(s.sorted)-i)], true
}

// QuantileGreater returns the q-quantile of the conditional distribution
// P(l | l > greater); ok is false when no probability mass lies above the
// conditioning point.
func (s *Sampler) QuantileGreater(q float64, greater int) (v int, ok bool) {
	i, ok := s.rankInside(greater)
	if !ok {
		i = s.rankOutside(greater)
	}
	m := len(s.sorted) - i
	if m == 0 {
		return 0, false
	}
	return s.sorted[i+quantileIndex(q, m)], true
}

// quantileIndex maps quantile q over n sorted values to the smallest index
// whose CDF (index+1)/n reaches q, clamped to a valid index. n must be > 0.
func quantileIndex(q float64, n int) int {
	// ceil(q·n) without the call: int truncates toward zero, so a positive
	// fraction left over means one more.
	x := q * float64(n)
	idx := int(x)
	if float64(idx) < x {
		idx++
	}
	idx--
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}
