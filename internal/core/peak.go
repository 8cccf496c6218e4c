package core

import (
	"slices"

	"github.com/lightllm-go/lightllm/internal/request"
)

// PeakEstimator computes the batch's future peak memory M* (Equations 2–4)
// incrementally, replacing the clone+re-sort+scan of FutureRequiredMemory in
// the per-candidate admission loop.
//
// It maintains the batch entries sorted by remaining length descending,
// together with three running aggregates over that order (1-indexed i):
//
//	prefC[i]    = Σ_{j≤i} Current_j           (prefix occupancy)
//	M_i         = prefC[i] + Remaining_i × i  (memory when entry i finishes)
//	prefMaxM[i] = max_{j≤i} M_j
//	sufMaxMR[i] = max_{j≥i} (M_j + Remaining_j)
//
// With those, the peak of the batch plus one hypothetical candidate is a
// three-term maximum around the candidate's insertion rank p: entries ahead
// of it are untouched (prefMaxM), the candidate's own completion point is
// prefC[p-1] + C + R×p, and every entry behind it gains the candidate's
// Current and one extra step (sufMaxMR + C). PeakWith is therefore one
// O(log B) binary search plus O(1) arithmetic — the whole admission loop
// drops from O(Q·B log B) to O((B+Q) log B) per scheduling step.
//
// Push buffers entries unsorted until the first query, which sorts once
// (O(B log B) — the per-step batch rebuild); a Push after a query splices
// into the sorted order and repairs the aggregates in O(B) word moves,
// which only happens once per *admitted* request. All buffers are reused
// across Reset, so a warm estimator performs zero heap allocations.
//
// Results are bit-identical to FutureRequiredMemory (the reference
// implementation, kept for cross-checking): M* depends only on the entry
// multiset, so tie order between equal remaining lengths cannot change it.
type PeakEstimator struct {
	ent      []Entry
	prefC    []int
	prefMaxM []int
	sufMaxMR []int
	keys     []uint64 // sortPacked's scratch, reused across flushes
	unsorted bool     // entries appended since the last sort
}

// sentinel for empty suffix maxima; far below any reachable M value but far
// from overflow when a candidate's Current is added on top.
const negInfPeak = -1 << 60

// Reset empties the estimator, retaining capacity.
func (pe *PeakEstimator) Reset() {
	pe.ent = pe.ent[:0]
	pe.unsorted = false
}

// Len returns the number of entries pushed since the last Reset.
func (pe *PeakEstimator) Len() int { return len(pe.ent) }

// Push adds an entry to the batch. Negative remaining lengths are clamped
// to zero exactly like the reference implementation (a finished-this-step
// request holds memory but grows no further).
func (pe *PeakEstimator) Push(e Entry) {
	if e.Remaining < 0 {
		e.Remaining = 0
	}
	if pe.unsorted || len(pe.ent) == 0 {
		// Build phase: defer sorting to the first query.
		pe.ent = append(pe.ent, e)
		pe.unsorted = true
		return
	}
	// Incremental phase: splice into the descending-remaining order and
	// repair the aggregates from the insertion rank.
	p := pe.rank(e.Remaining)
	pe.ent = append(pe.ent, Entry{})
	copy(pe.ent[p+1:], pe.ent[p:])
	pe.ent[p] = e
	pe.rebuildFrom(p)
}

// rank returns the insertion rank of a remaining length in the descending
// order: the first index whose entry has less remaining, after any ties. The
// entries must be sorted.
func (pe *PeakEstimator) rank(remaining int) int {
	lo, hi := 0, len(pe.ent)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pe.ent[mid].Remaining >= remaining {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertionSortMax is the largest batch flush sorts by insertion. A fleet
// replica's running batch plus waiting set — what the routing probes rebuild —
// sits well under it, where the calls of a generic sort cost more than the
// comparisons it saves. A single engine at the memory knee does not: the
// paper's Fig. 7 setting (50 closed-loop clients) runs 44–50 requests plus
// its queue and straddles the limit, so the sort above it (sortPacked) has to
// be cheap as well.
const insertionSortMax = 48

// flush sorts buffered entries, descending by remaining length, and
// rebuilds the aggregates. Neither sort allocates — a requirement of the
// zero-allocation admission hot path.
func (pe *PeakEstimator) flush() {
	if !pe.unsorted {
		return
	}
	if ent := pe.ent; len(ent) <= insertionSortMax {
		// Callers push a batch in engine order: running requests oldest
		// first, then the waiting set — the least remaining first and the
		// most last, close to this sort's worst case. Reversed, it is close
		// to sorted, and an insertion sort moves next to nothing.
		slices.Reverse(ent)
		for i := 1; i < len(ent); i++ {
			e := ent[i]
			j := i
			for ; j > 0 && ent[j-1].Remaining < e.Remaining; j-- {
				ent[j] = ent[j-1]
			}
			ent[j] = e
		}
	} else if !pe.sortPacked() {
		slices.SortFunc(ent, func(a, b Entry) int { return b.Remaining - a.Remaining })
	}
	pe.rebuildFrom(0)
	pe.unsorted = false
}

// sortPacked sorts the entries descending by remaining length through one
// word per entry — Remaining in the high half, Current in the low — so the
// sort compares machine words instead of calling a comparator per pair. Ties
// come out ordered by Current, which M* cannot see: it depends on the entry
// multiset only, and every rank lands on a tie group's boundary. It reports
// false, the entries untouched, when a field does not fit its half: during
// cold start Remaining is the request's cap, and the server accepts a
// max_new_tokens of 2^62.
func (pe *PeakEstimator) sortPacked() bool {
	keys := pe.keys[:0]
	for _, e := range pe.ent {
		if uint64(e.Current)>>32 != 0 || uint64(e.Remaining)>>32 != 0 {
			return false
		}
		keys = append(keys, uint64(e.Remaining)<<32|uint64(e.Current))
	}
	pe.keys = keys
	slices.Sort(keys)
	last := len(keys) - 1
	for i, k := range keys {
		pe.ent[last-i] = Entry{Current: int(uint32(k)), Remaining: int(k >> 32)}
	}
	return true
}

// rebuildFrom recomputes prefix aggregates for ranks ≥ p and the suffix
// maxima over the whole batch.
func (pe *PeakEstimator) rebuildFrom(p int) {
	n := len(pe.ent)
	if cap(pe.prefC) < n {
		// Growing discards the old aggregate prefixes; recompute everything.
		pe.prefC = make([]int, n, 2*n)
		pe.prefMaxM = make([]int, n, 2*n)
		pe.sufMaxMR = make([]int, n+1, 2*n+1)
		p = 0
	}
	pe.prefC = pe.prefC[:n]
	pe.prefMaxM = pe.prefMaxM[:n]
	pe.sufMaxMR = pe.sufMaxMR[:n+1]
	for i := p; i < n; i++ {
		c, mx := 0, negInfPeak
		if i > 0 {
			c, mx = pe.prefC[i-1], pe.prefMaxM[i-1]
		}
		pe.prefC[i] = c + pe.ent[i].Current
		if m := pe.prefC[i] + pe.ent[i].Remaining*(i+1); m > mx {
			mx = m
		}
		pe.prefMaxM[i] = mx
	}
	pe.sufMaxMR[n] = negInfPeak
	for i := n - 1; i >= 0; i-- {
		m := pe.prefC[i] + pe.ent[i].Remaining*(i+1)
		v := m + pe.ent[i].Remaining
		if pe.sufMaxMR[i+1] > v {
			v = pe.sufMaxMR[i+1]
		}
		pe.sufMaxMR[i] = v
	}
}

// Peak returns M* of the pushed entries; 0 when empty.
func (pe *PeakEstimator) Peak() int {
	pe.flush()
	n := len(pe.ent)
	if n == 0 || pe.prefMaxM[n-1] < 0 {
		return 0
	}
	return pe.prefMaxM[n-1]
}

// PeakWith returns M* of the pushed entries plus one hypothetical candidate,
// without mutating the estimator. It is bit-identical to
// futurePeakWithCandidate over the same entries.
func (pe *PeakEstimator) PeakWith(cand Entry) int {
	return pe.Terms(cand.Remaining).With(cand.Current)
}

// PeakTerms is PeakWith with the candidate's Remaining fixed: around the
// candidate's insertion rank p the peak is max(a, Current + d, 0), where a is
// the maximum over the ranks ahead of it (untouched by the candidate) and d
// the larger of its own completion point and the ranks behind it, both less
// its Current. The terms depend only on the estimator's entries and that
// Remaining, so a caller pricing many candidates of one predicted length
// against an estimator nobody pushes to keeps them and skips the search.
type PeakTerms struct{ a, d int }

// Terms returns the PeakTerms of a candidate with the given remaining length.
// They hold until the next Push or Reset.
func (pe *PeakEstimator) Terms(remaining int) PeakTerms {
	if remaining < 0 {
		remaining = 0
	}
	pe.flush()
	p := pe.rank(remaining)
	// The candidate's own completion point at rank p+1.
	t := PeakTerms{a: negInfPeak, d: remaining * (p + 1)}
	if p > 0 {
		t.a = pe.prefMaxM[p-1] // ranks ahead of the candidate: unchanged
		t.d += pe.prefC[p-1]
	}
	// Ranks behind the candidate: each gains Current and one extra step.
	if p < len(pe.ent) && pe.sufMaxMR[p] > t.d {
		t.d = pe.sufMaxMR[p]
	}
	return t
}

// With returns PeakWith(Entry{current, remaining}) over the estimator and
// remaining length t was read at.
func (t PeakTerms) With(current int) int {
	return max(t.a, current+t.d, 0)
}

// PushTrue pushes a request's ground-truth memory trajectory — the oracle's
// and the metrics layer's view of the batch.
func (pe *PeakEstimator) PushTrue(r *request.Request) {
	pe.Push(Entry{Current: r.KVLanded(), Remaining: r.RemainingTrue() + r.PrefillRemaining()})
}
