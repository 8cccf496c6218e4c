package dist

import (
	"math"
	"sort"

	"github.com/lightllm-go/lightllm/internal/rng"
)

// Sampler answers distribution queries over a Window's contents. Obtain
// one via Window.Sampler(); the zero value behaves as a sampler over an
// empty window. Every query is a rank (one load from the rank index) and an
// index into the window's sorted array, and performs no heap allocations.
type Sampler struct {
	sorted []int // window contents, ascending: the empirical CDF
	// le is the rank index: le[g] observations are ≤ g, and len(le) exceeds
	// every observation held. nil when the window ranks by binary search
	// instead — it holds an observation outside [0, rankBound), or is the
	// zero Sampler.
	le []int32
}

const (
	// rankBound caps the rank index at 256 KiB per window, far above any
	// output length a served model produces.
	rankBound = 1 << 16
	// rankMinCap is the table's first capacity; short-output windows never
	// grow past it.
	rankMinCap = 256
)

// rank returns the number of observations ≤ g, which is also the index of
// the first observation > g in the sorted array.
func (s *Sampler) rank(g int) int {
	if uint(g) < uint(len(s.le)) {
		return int(s.le[g])
	}
	return s.rankOutside(g)
}

// rankOutside is rank for a g the table does not hold, kept out of line so
// that rank inlines into the queries: either g lies beyond every observation
// on one side, or there is no table and the sorted array is searched.
func (s *Sampler) rankOutside(g int) int {
	switch {
	case s.le == nil:
		return sort.SearchInts(s.sorted, g+1)
	case g < 0:
		return 0
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
		s.le = nil
		return false
	}
	if have := len(s.le); v >= have {
		if v >= cap(s.le) {
			grown := make([]int32, have, min(max(2*cap(s.le), v+1), rankBound))
			copy(grown, s.le)
			s.le = grown
		}
		s.le = s.le[:v+1]
		for g := have; g <= v; g++ {
			s.le[g] = int32(n)
		}
	}
	return true
}

// reindex builds the rank index from the sorted array, whose observations
// all lie in [0, rankBound).
func (s *Sampler) reindex() {
	top := s.sorted[len(s.sorted)-1]
	s.le = make([]int32, top+1, max(top+1, rankMinCap))
	i := 0
	for g := range s.le {
		for i < len(s.sorted) && s.sorted[i] <= g {
			i++
		}
		s.le[g] = int32(i)
	}
}

// shift adds d to every count in t.
func shift(t []int32, d int32) {
	for g := range t {
		t[g] += d
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
	i := s.rank(greater) // first observation > greater
	if i == len(s.sorted) {
		return 0, false
	}
	return s.sorted[i+r.Intn(len(s.sorted)-i)], true
}

// QuantileGreater returns the q-quantile of the conditional distribution
// P(l | l > greater); ok is false when no probability mass lies above the
// conditioning point.
func (s *Sampler) QuantileGreater(q float64, greater int) (v int, ok bool) {
	i := s.rank(greater)
	m := len(s.sorted) - i
	if m == 0 {
		return 0, false
	}
	return s.sorted[i+quantileIndex(q, m)], true
}

// quantileIndex maps quantile q over n sorted values to the smallest index
// whose CDF (index+1)/n reaches q, clamped to a valid index. n must be > 0.
func quantileIndex(q float64, n int) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}
