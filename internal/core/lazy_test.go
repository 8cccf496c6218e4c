package core

import (
	"math"
	"testing"

	"github.com/lightllm-go/lightllm/internal/rng"
)

// lazyOp is one estimator operation of TestPeakEstimatorLazyAggregates: its
// kind, the entry it pushes or asks about, and, for Exceeds, the limit the
// checking pass chose.
type lazyOp struct {
	kind  byte
	e     Entry
	limit int
}

const (
	opPush byte = iota
	opExceeds
	opPeakWith
	opTerms
	opPeak
	opMaxRemaining
	opReset
)

// lazyEdge are the values an edge-shaped sequence draws from: both sides of
// Exceeds' 32-bit no-wrap range for Current, and for Remaining negative
// lengths, ties, both sides of the clamp and far past it.
var (
	lazyEdgeCurrent   = []int{0, 1, 977, 1<<32 - 1, 1 << 32}
	lazyEdgeRemaining = []int{-5, 0, 7, 7, 300, maxRemaining - 1, maxRemaining, 1 << 40, 1 << 62}
)

// lazyOps draws one random sequence: it grows the batch toward a target size
// — under insertionSortMax, just around it, or well above — often in a burst
// before the first query, with queries of every kind in between, and
// sometimes resets it. shape 2 draws from the no-wrap edge.
func lazyOps(r *rng.RNG, shape int) []lazyOp {
	target := []int{6, insertionSortMax - 2, insertionSortMax + 3, 120}[r.Intn(4)]
	draw := func() Entry {
		switch shape {
		case 0: // at the knee: resident memory dominates what is left
			return Entry{Current: 500 + r.Intn(1500), Remaining: r.Intn(60) - 2}
		case 1:
			return Entry{Current: r.Intn(400), Remaining: r.Intn(8000) - 3}
		}
		return Entry{Current: lazyEdgeCurrent[r.Intn(len(lazyEdgeCurrent))],
			Remaining: lazyEdgeRemaining[r.Intn(len(lazyEdgeRemaining))]}
	}
	var ops []lazyOp
	n := 0
	for len(ops) < 400 {
		if n == 0 {
			// A fresh batch: often most of it arrives before the first query,
			// so that query sorts it all.
			for burst := r.Intn(target + 1); n < burst; n++ {
				ops = append(ops, lazyOp{kind: opPush, e: draw()})
			}
		}
		k := r.Intn(20)
		switch {
		case k < 9 || n < 2:
			ops, n = append(ops, lazyOp{kind: opPush, e: draw()}), n+1
		case k < 13:
			ops = append(ops, lazyOp{kind: opExceeds, e: draw()})
		case k < 14:
			ops = append(ops, lazyOp{kind: opPeakWith, e: draw()})
		case k < 15:
			ops = append(ops, lazyOp{kind: opTerms, e: draw()})
		case k < 17:
			ops = append(ops, lazyOp{kind: opPeak})
		case k < 19:
			ops = append(ops, lazyOp{kind: opMaxRemaining})
		case n > target:
			ops, n = append(ops, lazyOp{kind: opReset}), 0
		}
	}
	return ops
}

// run applies op to est and returns what it answered, as an int.
func (op *lazyOp) run(est *PeakEstimator) int {
	switch op.kind {
	case opPush:
		est.Push(op.e)
	case opExceeds:
		if est.Exceeds(op.e, op.limit) {
			return 1
		}
	case opPeakWith:
		return est.PeakWith(op.e)
	case opTerms:
		return est.Terms(op.e.Remaining).With(op.e.Current)
	case opPeak:
		return est.Peak()
	case opMaxRemaining:
		return est.MaxRemaining()
	case opReset:
		est.Reset()
	}
	return 0
}

// TestPeakEstimatorLazyAggregates holds every estimator operation to the
// reference over random sequences that mix them: the aggregates are built
// only by Terms, PeakWith and Peak, so Pushes land in every phase — buffered,
// sorted with no aggregates yet (after an Exceeds that sorted) and sorted
// with them — and Exceeds answers from the build-phase term or from one scan
// of the sorted entries. Every answer must equal
// FutureRequiredMemory over the same entries (with the candidate, for
// Exceeds, PeakWith and Terms), MaxRemaining the largest clamped Remaining.
// Batches sort on both sides of insertionSortMax, and one shape draws from
// both sides of the 32-bit no-wrap range. Replayed on the warm estimator,
// no operation allocates.
func TestPeakEstimatorLazyAggregates(t *testing.T) {
	var est PeakEstimator
	var seqs [][]lazyOp
	var bareSplices, builtSplices, smallSorts, largeSorts int
	for seed := uint64(1); seed <= 90; seed++ {
		r := rng.New(seed)
		ops := lazyOps(r, int(seed%3))
		est.Reset()
		var entries []Entry
		for i := range ops {
			op := &ops[i]
			want := 0
			switch op.kind {
			case opPush:
				switch {
				case len(est.ent) == 0 || est.unsorted:
				case est.built:
					builtSplices++
				default:
					bareSplices++
				}
				entries = append(entries, op.e)
			case opExceeds:
				peak := futurePeakWithCandidate(entries, op.e)
				op.limit = []int{peak - 1, peak, peak + 1, r.Intn(2*max(peak, 1) + 1)}[r.Intn(4)]
				if peak == math.MinInt || peak == math.MaxInt {
					op.limit = peak
				}
				if peak > op.limit {
					want = 1
				}
			case opPeakWith, opTerms:
				want = futurePeakWithCandidate(entries, op.e)
			case opPeak:
				want = FutureRequiredMemory(entries)
			case opMaxRemaining:
				for _, e := range entries {
					want = max(want, clampRemaining(e.Remaining))
				}
			case opReset:
				entries = entries[:0]
			}
			buffered, n := est.unsorted, len(est.ent)
			if got := op.run(&est); got != want {
				t.Fatalf("seed %d op %d (kind %d, %+v, limit %d) over %d entries: got %d, want %d",
					seed, i, op.kind, op.e, op.limit, len(entries), got, want)
			}
			if buffered && !est.unsorted && op.kind != opReset {
				if n <= insertionSortMax {
					smallSorts++
				} else {
					largeSorts++
				}
			}
		}
		seqs = append(seqs, ops)
	}
	if bareSplices == 0 || builtSplices == 0 || smallSorts == 0 || largeSorts == 0 {
		t.Fatalf("%d splices before the aggregates, %d after, %d sorts up to %d entries and %d above: some phase is never exercised",
			bareSplices, builtSplices, smallSorts, insertionSortMax, largeSorts)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, ops := range seqs {
			est.Reset()
			for i := range ops {
				ops[i].run(&est)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("the warm estimator allocates %v per replay of every sequence, want 0", allocs)
	}
}
