package core

import (
	"math/bits"
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
// Push buffers entries unsorted until the first query, which sorts once —
// by insertion up to insertionSortMax entries, by a radix sort over the
// significant bytes of Remaining above it (the per-step batch rebuild). The
// aggregates are built lazily: Terms and PeakWith build them on first need
// after a sort, and from then on a Push splices into the sorted order and
// repairs them in O(B) word moves. A Push into an estimator that is sorted
// but has no aggregates yet only splices, and Peak reads them only when they
// are built. All buffers are reused across Reset, so a warm estimator
// performs zero heap allocations.
//
// An admission gate asks a yes/no question — does M* with the candidate pass
// the limit? — and Exceeds answers it. Most rounds at the memory knee refuse
// the queue's head, and one term of Eq. 2–4 refuses it before anything is
// sorted: the last completion point of the batch with the candidate, where
// every entry is still resident and every one of the n+1 has grown by the
// smallest Remaining, ΣCurrent + (n+1)·min Remaining. The build phase keeps
// ΣCurrent and min Remaining beside the buffered entries, so that term costs
// O(1). When it passes, Exceeds sorts and answers in one forward scan of the
// sorted entries (scanExceeds) instead of building three aggregate arrays
// for one question.
//
// Results are bit-identical to FutureRequiredMemory (the reference
// implementation, kept for cross-checking): M* depends only on the entry
// multiset, so tie order between equal remaining lengths cannot change it.
type PeakEstimator struct {
	ent      []Entry
	prefC    []int
	prefMaxM []int
	sufMaxMR []int
	spare    []Entry        // sortRadix's scratch, reused across flushes
	digits   *[4][256]int32 // sortRadix's digit counts, one row a pass
	unsorted bool           // entries appended since the last sort
	built    bool           // prefC, prefMaxM and sufMaxMR describe the sorted entries

	// Build-phase aggregates, kept by Push from Reset to the first query:
	// ΣCurrent, the smallest clamped Remaining, and the OR of every Current
	// and Remaining (its high half set means some value does not fit in 32
	// bits). Exceeds reads them only while unsorted or empty; Reset clears
	// them.
	sumC int
	minR int
	bits uint64
}

// sentinel for empty suffix maxima; far below any reachable M value but far
// from overflow when a candidate's Current is added on top.
const negInfPeak = -1 << 60

// maxRemaining caps a Remaining length wherever M* is computed. No KV pool
// holds 2^31 tokens, so the cap moves no peak that a limit below it can see;
// what it buys is that (n+1)·Remaining stays under 2^61 while n < 2^30, so no
// completion point wraps — a cold-start cap of 2^62 used to wrap M* negative
// and admit.
const maxRemaining = 1<<31 - 1

// clampRemaining folds a Remaining length into [0, maxRemaining]: negative
// lengths (a request finished this step holds memory but grows no further)
// to zero, huge ones to the cap.
func clampRemaining(r int) int { return min(max(r, 0), maxRemaining) }

// Reset empties the estimator, retaining capacity.
func (pe *PeakEstimator) Reset() {
	pe.ent = pe.ent[:0]
	pe.unsorted, pe.built = false, false
	pe.sumC, pe.minR, pe.bits = 0, 0, 0
}

// Len returns the number of entries pushed since the last Reset.
func (pe *PeakEstimator) Len() int { return len(pe.ent) }

// Push adds an entry to the batch. Remaining lengths are clamped into
// [0, maxRemaining] exactly like the reference implementation.
func (pe *PeakEstimator) Push(e Entry) {
	e.Remaining = clampRemaining(e.Remaining)
	if pe.unsorted || len(pe.ent) == 0 {
		// Build phase: defer sorting to the first query.
		if len(pe.ent) == 0 || e.Remaining < pe.minR {
			pe.minR = e.Remaining
		}
		pe.sumC += e.Current
		pe.bits |= uint64(e.Current) | uint64(e.Remaining)
		pe.ent = append(pe.ent, e)
		pe.unsorted = true
		return
	}
	// Incremental phase: splice into the descending-remaining order and
	// repair the aggregates, if any are built, from the insertion rank.
	p := pe.rank(e.Remaining)
	pe.ent = append(pe.ent, Entry{})
	copy(pe.ent[p+1:], pe.ent[p:])
	pe.ent[p] = e
	if pe.built {
		pe.rebuildFrom(p)
	}
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
// sits well under it, where a radix sort's bucket passes cost more than the
// comparisons they save. A single engine at the memory knee runs 44–50
// requests in the paper's Fig. 7 setting (50 closed-loop clients) and
// straddles the limit, so the sort above it (sortRadix) has to be cheap as
// well — but only the rounds that admit, the few refusals Exceeds cannot
// settle from its build-phase term, and an attached MStarObserver's true M*
// sort at all there.
const insertionSortMax = 48

// flush sorts buffered entries, descending by remaining length; the
// aggregates wait for build. Neither sort allocates once warm — a requirement
// of the zero-allocation admission hot path.
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
	} else {
		pe.sortRadix()
	}
	pe.unsorted = false
}

// build sorts the entries and builds the aggregates over them, unless they
// already describe them or there are none.
func (pe *PeakEstimator) build() {
	pe.flush()
	if !pe.built && len(pe.ent) > 0 {
		pe.rebuildFrom(0)
		pe.built = true
	}
}

// sortRadix sorts the entries descending by remaining length with a stable
// least-significant-digit radix sort. Push clamps every Remaining into
// [0, 2^31), and the OR of them says how many bits are significant: one pass
// per significant byte, one to four, with the bits shared evenly among the
// passes, so that lengths under 2^14 take two passes over 128 buckets rather
// than 256. One read of the entries counts the digits of every pass; a pass
// whose digit is the same for every entry moves nothing and is skipped. Each
// pass scatters between the entries and a reused scratch slice, so the sort
// makes no comparison and, once warm, no allocation.
//
// Ties come out in push order, which M* cannot see: it depends on the entry
// multiset only, and every rank lands on a tie group's boundary.
func (pe *PeakEstimator) sortRadix() {
	src := pe.ent
	var or uint32
	for _, e := range src {
		or |= uint32(e.Remaining)
	}
	width := uint(bits.Len32(or))
	if width == 0 {
		return // every Remaining is 0
	}
	passes := (width + 7) / 8
	digit := (width + passes - 1) / passes
	top := uint32(1)<<digit - 1
	all := uint32(1)<<(digit*passes) - 1
	// Digits are counted complemented, so the largest lands first.
	if pe.digits == nil {
		pe.digits = new([4][256]int32)
	}
	at := pe.digits
	for p := uint(0); p < passes; p++ {
		clear(at[p][:top+1])
	}
	for _, e := range src {
		r := all - uint32(e.Remaining)
		at[0][uint8(r&top)]++
		if passes > 1 {
			at[1][uint8(r>>digit&top)]++
			if passes > 2 {
				at[2][uint8(r>>(2*digit)&top)]++
				if passes > 3 {
					at[3][uint8(r>>(3*digit)&top)]++
				}
			}
		}
	}
	if cap(pe.spare) < len(src) {
		pe.spare = make([]Entry, len(src), 2*len(src))
	}
	dst := pe.spare[:len(src)]
	for p := uint(0); p < passes; p++ {
		shift, c := digit*p, &at[p]
		if int(c[uint8((all-uint32(src[0].Remaining))>>shift&top)]) == len(src) {
			continue
		}
		sum := int32(0)
		for d, n := range c[:top+1] {
			c[d] = sum
			sum += n
		}
		for _, e := range src {
			d := uint8((all - uint32(e.Remaining)) >> shift & top)
			dst[c[d]] = e
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &pe.ent[0] {
		pe.ent, pe.spare = src, pe.ent // an odd number of passes: trade places
	}
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

// Peak returns M* of the pushed entries; 0 when empty. It reads the
// aggregates when they are built and otherwise takes the largest completion
// point in one pass over the sorted entries, building nothing: a caller that
// asks for the peak and then resets pays for no aggregate, and Terms still
// builds them on its first need.
func (pe *PeakEstimator) Peak() int {
	pe.flush()
	n := len(pe.ent)
	if n == 0 {
		return 0
	}
	if pe.built {
		return max(pe.prefMaxM[n-1], 0)
	}
	c, m := 0, 0
	for i, e := range pe.ent {
		c += e.Current
		m = max(m, c+e.Remaining*(i+1))
	}
	return m
}

// MaxRemaining returns the largest clamped Remaining of the pushed entries;
// 0 when empty. A candidate with at least that much left is resident at every
// completion point, so PeakWith(cand) ≥ Peak() + cand.Current.
func (pe *PeakEstimator) MaxRemaining() int {
	pe.flush()
	if len(pe.ent) == 0 {
		return 0
	}
	return pe.ent[0].Remaining
}

// PeakWith returns M* of the pushed entries plus one hypothetical candidate,
// without mutating the estimator. It is bit-identical to
// FutureRequiredMemory over the same entries plus the candidate.
func (pe *PeakEstimator) PeakWith(cand Entry) int {
	return pe.Terms(cand.Remaining).With(cand.Current)
}

// Exceeds reports PeakWith(cand) > limit — the admission gate's question —
// and settles a refusal without sorting when it can. While the entries are
// still buffered (or there are none) it first computes
//
//	M_{n+1} = ΣCurrent + cand.Current + (n+1)·min(min Remaining, cand.Remaining)
//
// from the build-phase aggregates: the completion point of the last of the
// n+1 entries in descending-Remaining order, one of the terms Eq. 2–4 take
// the maximum over. Which entry holds the last rank among ties does not
// matter — the term reads only the sum and the smallest Remaining — and
// PeakWith builds the same term from the same integer operations (its prefix
// sums and products regroup it, and two's-complement sums are associative),
// so the two agree bit for bit. When that term is over the limit the peak is
// too, and Exceeds returns true. Otherwise it sorts and answers in one scan
// of the sorted entries (scanExceeds), built aggregates or not.
//
// The shortcut needs PeakWith's maximum to cover the term, which holds as
// long as nothing wraps: PeakWith takes a maximum before adding the
// candidate's Current, and a wrapped sum there could drop below the term.
// Every term is at most ΣCurrent + (n+1)·max Remaining, so with each Current
// under 2^32, every Remaining clamped under 2^31 and n+1 ≤ 2^30 none wraps;
// outside that range — a negative or huge Current — Exceeds goes straight to
// PeakWith. Either way its answer is exactly PeakWith(cand) > limit.
func (pe *PeakEstimator) Exceeds(cand Entry, limit int) bool {
	if pe.unsorted || len(pe.ent) == 0 {
		r, n := clampRemaining(cand.Remaining), len(pe.ent)
		fits := (pe.bits|uint64(cand.Current)|uint64(r))>>32 == 0 && n < 1<<30
		if n > 0 {
			r = min(r, pe.minR)
		}
		if fits && pe.sumC+cand.Current+(n+1)*r > limit {
			return true
		}
		pe.flush()
	}
	return pe.scanExceeds(cand, limit)
}

// scanExceeds is Exceeds over sorted entries, aggregates or none:
// PeakWith(cand) > limit in one forward pass, with the prefix sum of Current
// carried along. The ranks ahead of the candidate (Remaining at least its
// own) keep their completion points M_i, and any of them over the limit
// settles it. Then come the candidate's own completion point and the ranks
// behind it, each one step later and holding the candidate's Current: their
// maximum d is taken first and the Current added after, as Terms and With
// do. Every value is the one PeakWith computes — the same sums in the same
// order, and M_i + Remaining_i is Remaining_i·(i+2) over the prefix sum in
// two's-complement arithmetic — so the answer is bit for bit PeakWith's.
func (pe *PeakEstimator) scanExceeds(cand Entry, limit int) bool {
	r, ent := clampRemaining(cand.Remaining), pe.ent
	c, i := 0, 0
	for ; i < len(ent) && ent[i].Remaining >= r; i++ {
		c += ent[i].Current
		if c+ent[i].Remaining*(i+1) > limit {
			return true
		}
	}
	d := c + r*(i+1)
	for ; i < len(ent); i++ {
		c += ent[i].Current
		d = max(d, c+ent[i].Remaining*(i+2))
	}
	return cand.Current+d > limit || limit < 0
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
	remaining = clampRemaining(remaining)
	pe.build()
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
// and the MStarObserver's view of the batch.
func (pe *PeakEstimator) PushTrue(r *request.Request) {
	pe.Push(Entry{Current: r.KVLanded(), Remaining: r.RemainingTrue() + r.PrefillRemaining()})
}
