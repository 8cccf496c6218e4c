// Package dist maintains the Past-Future scheduler's "past": a sliding
// window of recently observed output lengths (paper §3.2, Equation 1) and a
// sampler over its empirical distribution.
//
// # Always-sorted CDF
//
// The window is a fixed-capacity ring buffer: once it is full the oldest
// observation is evicted, so the distribution tracks workload drift (the
// paper's API-trace observation). Beside the ring the window keeps the same
// observations in ascending order, and Add maintains that order in place:
// it binary-searches the evicted value out and the new value in and closes
// the gap with one copy over the span between them — O(n) word moves, no
// comparison sort. The sorted array is therefore exact after every Add, and
// Sampler() is a plain accessor: the admission loop, the routing probes and
// the reference estimators may ask for it as often as they like at no cost.
//
// A sorted array IS the empirical CDF: the value at rank i has cumulative
// probability (i+1)/n, so every unconditional query is one index into it:
//
//   - Sample draws uniformly over the window (an i.i.d. draw from P(l)),
//   - Quantile returns the smallest value whose CDF reaches q,
//   - Max returns the window's support maximum.
//
// # Rank index
//
// The conditional queries — SampleGreater / QuantileGreater, Equation 1's
// dynamic update P(l | l > l_t) — first need the rank of l_t: how many
// observations are ≤ l_t. The scheduler asks that for every running request
// at every step and the router for every candidate on every replica, so the
// window answers it from a table instead of a search: le[g] is the number of
// observations ≤ g for every g in [0, len(le)), and len(le) exceeds every
// observation held. Replacing old by v changes "observations ≤ g" only for g
// between the two, so Add shifts le over [min(old, v), max(old, v)) — work
// proportional to how far apart they are, paid once per finished request,
// against one load per query. Both conditional queries report ok=false when
// no probability mass remains above the conditioning point.
//
// The table is bounded by rankBound entries whatever the observations are:
// Add accepts any int, and an observation that is negative or ≥ rankBound
// drops the table — the window then ranks by binary search over the sorted
// array, with the same answers — until that observation has left the window
// and everything held lies in [0, rankBound) again, when the table is built
// anew from the sorted array. RankDrops counts the drops.
//
// The ring and the sorted array are allocated once, at NewWindow, and the
// table grows geometrically to the largest observation seen, so a Window in
// steady state performs zero heap allocations — a requirement of the
// engine's allocation-free scheduling hot path.
package dist

import (
	"math"
	"sort"
)

// Window is a fixed-capacity sliding window of observed output lengths that
// keeps its empirical CDF sorted at all times. Not safe for concurrent use.
type Window struct {
	buf  []int // ring buffer, arrival order
	head int   // index of the oldest observation
	n    int   // observations currently held
	gen  uint64

	samp Sampler // the same n observations, ascending, and their rank index

	rankDrops int // times an observation outside [0, rankBound) dropped the index
}

// NewWindow creates a window holding at most capacity observations.
// It panics if capacity is not positive.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic("dist: window capacity must be positive")
	}
	w := &Window{
		buf:  make([]int, capacity),
		samp: Sampler{sorted: make([]int, 0, capacity)},
	}
	if w.indexable() {
		w.samp.le = make([]int32, 0, rankMinCap)
	}
	return w
}

// indexable reports whether the window keeps a rank index while its contents
// allow one: the table counts in int32.
func (w *Window) indexable() bool { return len(w.buf) <= math.MaxInt32 }

// Add records one observation, evicting the oldest when the window is full,
// and moves the sorted CDF and the rank index to match.
func (w *Window) Add(v int) {
	s := w.samp.sorted
	hadIndex := w.samp.le != nil
	if w.n < len(w.buf) {
		// Still filling: head is 0, the next ring slot is n.
		w.buf[w.n] = v
		w.n++
		i := sort.SearchInts(s, v)
		s = s[:len(s)+1]
		copy(s[i+1:], s[i:])
		s[i] = v
		w.samp.sorted = s
		// One more observation ≤ g for every g from v up.
		if w.samp.cover(v, w.n-1) {
			shift(w.samp.le[v:], 1)
		}
	} else {
		old := w.buf[w.head]
		w.buf[w.head] = v
		w.head++
		if w.head == len(w.buf) {
			w.head = 0
		}
		// Take one copy of old out and put v in: everything strictly
		// between their ranks shifts by one slot toward the hole, and the
		// count of observations ≤ g moves by one for every g between them.
		if v != old {
			i, j := sort.SearchInts(s, old), sort.SearchInts(s, v)
			if j > i { // v > old: ranks (i, j) slide down, v lands below rank j
				copy(s[i:], s[i+1:j])
				s[j-1] = v
				if w.samp.cover(v, w.n) {
					shift(w.samp.le[old:v], -1)
				}
			} else { // v < old: ranks [j, i) slide up, v takes rank j
				copy(s[j+1:], s[j:i])
				s[j] = v
				if w.samp.cover(v, w.n) {
					shift(w.samp.le[v:old], 1)
				}
			}
		}
	}
	w.gen++
	if w.samp.le == nil && w.indexable() {
		if hadIndex {
			w.rankDrops++
		}
		if s = w.samp.sorted; s[0] >= 0 && s[len(s)-1] < rankBound {
			w.samp.reindex() // the last observation outside the bound just left
		}
	}
}

// RankDrops returns how many times an observation outside [0, rankBound)
// dropped the rank index (it comes back once the observation has left the
// window). Each drop means O(log n) conditional queries for up to a window's
// worth of Adds: a served model's output lengths should never cause one.
func (w *Window) RankDrops() int { return w.rankDrops }

// Len returns the number of observations currently held.
func (w *Window) Len() int { return w.n }

// Cap returns the window capacity.
func (w *Window) Cap() int { return len(w.buf) }

// Generation returns the mutation counter; it increments on every Add.
func (w *Window) Generation() uint64 { return w.gen }

// Values returns the observations in arrival order (oldest first) as a
// fresh slice. Observation/test helper; the scheduling hot path uses the
// Sampler instead.
func (w *Window) Values() []int {
	out := make([]int, w.n)
	for i := 0; i < w.n; i++ {
		out[i] = w.buf[(w.head+i)%len(w.buf)]
	}
	return out
}

// Sampler returns the sampler over the window's contents. It is a live view,
// not a snapshot: the pointer stays valid for the window's lifetime and
// every query reflects all Adds so far. A caller that derives state from it
// and keeps that state across an Add (the cluster's warm routing estimator)
// must notice the move itself — Generation() is the signal.
func (w *Window) Sampler() *Sampler { return &w.samp }
