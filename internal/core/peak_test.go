package core

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// TestPeakEstimatorMatchesReferenceQuick: Peak() after any Push sequence is
// bit-identical to the reference FutureRequiredMemory over the same multiset.
func TestPeakEstimatorMatchesReferenceQuick(t *testing.T) {
	f := func(raw []struct{ C, R uint8 }) bool {
		var est PeakEstimator
		entries := make([]Entry, len(raw))
		for i, x := range raw {
			entries[i] = Entry{Current: int(x.C), Remaining: int(x.R%64) - 2} // include negatives
			est.Push(entries[i])
		}
		return est.Peak() == FutureRequiredMemory(entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPeakEstimatorPeakWithMatchesReferenceQuick: PeakWith(cand) equals the
// reference clone+sort path, interleaved with incremental pushes (the exact
// admission-loop access pattern: sorted build, query, push, query, ...).
func TestPeakEstimatorPeakWithMatchesReferenceQuick(t *testing.T) {
	f := func(batch []struct{ C, R uint8 }, cands []struct{ C, R uint8 }) bool {
		var est PeakEstimator
		entries := make([]Entry, 0, len(batch)+len(cands))
		for _, x := range batch {
			e := Entry{Current: int(x.C), Remaining: int(x.R % 48)}
			entries = append(entries, e)
			est.Push(e)
		}
		for i, x := range cands {
			cand := Entry{Current: int(x.C), Remaining: int(x.R%48) - 1}
			if est.PeakWith(cand) != futurePeakWithCandidate(entries, cand) {
				return false
			}
			if i%2 == 0 { // admit every other candidate
				est.Push(cand)
				entries = append(entries, cand)
				if est.Peak() != FutureRequiredMemory(entries) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxRemainingBoundsPeakWith pins the getter the cluster's probe floors
// read and the inequality they rest on: MaxRemaining is the largest clamped
// Remaining pushed (0 when empty), and a candidate with at least that much
// left — Current of either sign, as a lag-shifted candidate has — is resident
// at every completion point, so PeakWith gains at least its Current over Peak.
func TestMaxRemainingBoundsPeakWith(t *testing.T) {
	f := func(batch []struct{ C, R uint8 }, c int8, extra uint8) bool {
		var est PeakEstimator
		longest := 0
		for _, x := range batch {
			e := Entry{Current: int(x.C), Remaining: int(x.R%48) - 2}
			longest = max(longest, clampRemaining(e.Remaining))
			est.Push(e)
		}
		if est.MaxRemaining() != longest {
			return false
		}
		cand := Entry{Current: int(c), Remaining: longest + int(extra%4)}
		return est.PeakWith(cand) >= est.Peak()+cand.Current
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPeakEstimatorAcrossSortSizes runs the admission-loop access pattern —
// build, query, push, query — at batch sizes on both sides of flush's
// insertion-sort limit (and far above it), on one estimator reused across
// all of them, against the clone+sort reference. Remaining is drawn from a
// handful of values so most entries tie, and includes zero and negatives;
// the hand-written rank must land after a run of ties exactly where the
// reference's sort puts the candidate. Above the limit the radix sort takes
// one pass per significant byte of the largest Remaining, so the spreads
// give it one (under 2^8), two (2^8 to 2^16), three (2^16 to 2^24) and four
// (2^24 and up) bytes to sort by, each with runs of ties at both ends of its
// range; the widest includes a Remaining of 2^40 (a cold-start prediction of
// a huge max_new_tokens), which both sides clamp to 2^31−1 and so ties with
// its neighbour 2^40−1.
func TestPeakEstimatorAcrossSortSizes(t *testing.T) {
	var est PeakEstimator
	sizes := []int{300, 0, 1, 2, insertionSortMax - 1, insertionSortMax, insertionSortMax + 1, 64, 300}
	for _, n := range sizes {
		for _, spread := range []int{1, 5, 200, 400, 40_000, 5 << 20, 1 << 40} { // all ties, heavy ties, 1 to 4 bytes
			r := rng.New(uint64(n*1000 + spread%997))
			draw := func() Entry {
				if spread > 400 {
					return Entry{Current: r.Intn(200), Remaining: []int{spread, 7, spread - 1, 300, spread / 3, 0}[r.Intn(6)]}
				}
				return Entry{Current: r.Intn(200), Remaining: r.Intn(spread+2) - 2}
			}
			est.Reset()
			entries := make([]Entry, 0, n+8)
			for i := 0; i < n; i++ {
				e := draw()
				if i%3 == 0 {
					e.Remaining = spread - i // a descending run, then ascending noise
				}
				entries = append(entries, e)
				est.Push(e)
			}
			if got, want := est.Peak(), FutureRequiredMemory(entries); got != want {
				t.Fatalf("n=%d spread=%d: Peak = %d, reference %d", n, spread, got, want)
			}
			for i := 0; i < 8; i++ {
				cand := draw()
				if got, want := est.PeakWith(cand), futurePeakWithCandidate(entries, cand); got != want {
					t.Fatalf("n=%d spread=%d: PeakWith(%+v) = %d, reference %d", n, spread, cand, got, want)
				}
				est.Push(cand)
				entries = append(entries, cand)
				if got, want := est.Peak(), FutureRequiredMemory(entries); got != want {
					t.Fatalf("n=%d spread=%d: Peak after splicing %+v = %d, reference %d", n, spread, cand, got, want)
				}
			}
		}
	}
	// Above the limit the order itself: descending by clamped Remaining, ties
	// in push order, at every width.
	for _, n := range []int{insertionSortMax + 1, 64, 300} {
		for _, top := range []int{1 << 8, 1 << 16, 1 << 24, maxRemaining} {
			r := rng.New(uint64(n + top))
			est.Reset()
			entries := make([]Entry, n)
			for i := range entries {
				entries[i] = Entry{Current: i, Remaining: []int{0, top - 1, r.Intn(top), top / 2}[r.Intn(4)]}
				est.Push(entries[i])
			}
			est.Peak()
			want := slices.Clone(entries)
			slices.SortStableFunc(want, func(a, b Entry) int { return cmp.Compare(b.Remaining, a.Remaining) })
			if !slices.Equal(est.ent, want) {
				t.Fatalf("n=%d, Remaining below %d: sorted to %v, want %v", n, top, est.ent, want)
			}
		}
	}
	// Warm, no sort allocates: the radix sort's buckets and scratch are reused.
	for _, wide := range []int{0, 1 << 40} {
		allocs := testing.AllocsPerRun(20, func() {
			est.Reset()
			for i := 0; i < 300; i++ {
				est.Push(Entry{Current: i, Remaining: (i*7919)%500 + wide})
			}
			est.Peak()
		})
		if allocs != 0 {
			t.Fatalf("flush of 300 entries (Remaining from %d) allocates %v per run, want 0", wide, allocs)
		}
	}
}

func TestPeakEstimatorEmptyAndReset(t *testing.T) {
	var est PeakEstimator
	if got := est.Peak(); got != 0 {
		t.Fatalf("empty Peak = %d", got)
	}
	if got := est.PeakWith(Entry{Current: 3, Remaining: 4}); got != 7 {
		t.Fatalf("empty PeakWith = %d, want 7", got)
	}
	est.Push(Entry{Current: 10, Remaining: 5})
	if got := est.Peak(); got != 15 {
		t.Fatalf("Peak = %d, want 15", got)
	}
	est.Reset()
	if est.Len() != 0 || est.Peak() != 0 {
		t.Fatalf("Reset left Len=%d Peak=%d", est.Len(), est.Peak())
	}
	// Reuse after Reset must be consistent.
	est.Push(Entry{Current: 4, Remaining: 2})
	est.Push(Entry{Current: 5, Remaining: 4})
	est.Push(Entry{Current: 3, Remaining: 3})
	if got := est.Peak(); got != 18 {
		t.Fatalf("Peak after reset = %d, want 18 (hand-computed)", got)
	}
}

func TestPeakEstimatorPushTrue(t *testing.T) {
	var batch []*request.Request
	var est PeakEstimator
	for i := 0; i < 6; i++ {
		r := request.New(int64(i), 10+i, 5+i*3, 100, 0)
		for j := 0; j < i; j++ {
			r.EmitToken(float64(j))
		}
		batch = append(batch, r)
		est.PushTrue(r)
	}
	if got, want := est.Peak(), TrueFutureRequiredMemory(batch); got != want {
		t.Fatalf("PushTrue peak %d != TrueFutureRequiredMemory %d", got, want)
	}
}

// buildEstimator pushes entries into a fresh estimator. With split in
// [0, len(entries)] it queries after the first split entries, so the rest
// splice into the sorted order; any other split leaves every entry buffered.
func buildEstimator(entries []Entry, split int) *PeakEstimator {
	est := &PeakEstimator{}
	for i, e := range entries {
		if i == split {
			est.Peak()
		}
		est.Push(e)
	}
	if split == len(entries) {
		est.Peak()
	}
	return est
}

// checkExceeds holds Exceeds to PeakWith at the limits one below, at and one
// above the peak, each on an estimator freshly built in both phases: every
// entry buffered, and split (queried after the first entries, the rest
// spliced). PeakWith is read from a twin built the same way: with a negative
// Current the order inside a tie group shows in M*, and the two phases may
// order ties differently. It reports how many of the answers the buffered
// estimator gave without sorting.
func checkExceeds(t *testing.T, entries []Entry, split int, cand Entry) (shortcuts int) {
	t.Helper()
	for _, s := range []int{-1, split} {
		want := buildEstimator(entries, s).PeakWith(cand)
		for _, d := range []int{-1, 0, 1} {
			if want == math.MaxInt && d == 1 {
				continue
			}
			limit := want + d
			est := buildEstimator(entries, s)
			buffered := est.unsorted
			if got := est.Exceeds(cand, limit); got != (want > limit) {
				t.Fatalf("entries %v (split %d), cand %+v, limit %d: Exceeds = %v, PeakWith = %d",
					entries, s, cand, limit, got, want)
			}
			if buffered && est.unsorted {
				shortcuts++
			}
		}
	}
	return shortcuts
}

// TestPeakExceedsMatchesPeakWith: Exceeds(cand, limit) is PeakWith(cand) >
// limit on buffered and on spliced estimators — the empty one, all ties,
// negative Remaining on entries and on the candidate, Remaining near 2^62
// (clamped to 2^31−1, so no sum wraps), Current past 2^32 or negative (where
// the shortcut must stand aside), and randomized batches shaped like a knee,
// where the last completion point usually is the peak.
func TestPeakExceedsMatchesPeakWith(t *testing.T) {
	const big = 1 << 62
	shortcuts := 0
	for _, c := range []struct {
		name    string
		entries []Entry
		cand    Entry
	}{
		{"empty", nil, Entry{Current: 3, Remaining: 4}},
		{"empty, negative candidate", nil, Entry{Current: 3, Remaining: -4}},
		{"ties", []Entry{{5, 7}, {9, 7}, {1, 7}, {4, 7}}, Entry{Current: 2, Remaining: 7}},
		{"ties behind the candidate", []Entry{{5, 3}, {9, 3}, {1, 9}}, Entry{Current: 2, Remaining: 5}},
		{"negative entries", []Entry{{10, -3}, {4, -1}, {8, 6}}, Entry{Current: 2, Remaining: 5}},
		{"negative candidate", []Entry{{10, 3}, {4, 1}, {8, 6}}, Entry{Current: 2, Remaining: -5}},
		{"cap 2^62 everywhere", []Entry{{100, big}, {200, big - 3}}, Entry{Current: 50, Remaining: big}},
		{"2^32 edge", []Entry{{1<<32 - 1, 1<<32 - 1}, {1, 1}}, Entry{Current: 1 << 32, Remaining: 0}},
		// Before Remaining was clamped, PeakWith's maximum wrapped to 0 here
		// past the candidate's Current and admitted under any limit.
		{"wrapped before the clamp", []Entry{{0, big - 1<<20}, {0, 1}}, Entry{Current: 1 << 22, Remaining: big - 1<<20 + 1}},
		{"negative current", []Entry{{-1 << 40, 5}, {1 << 40, 5}}, Entry{Current: 7, Remaining: 1}},
	} {
		for split := 0; split <= len(c.entries); split++ {
			shortcuts += checkExceeds(t, c.entries, split, c.cand)
		}
	}
	r := rng.New(27)
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(80)
		knee := trial%2 == 0
		draw := func() Entry {
			if knee { // resident memory dominates what is left to grow
				return Entry{Current: 500 + r.Intn(1500), Remaining: r.Intn(60) - 2}
			}
			return Entry{Current: r.Intn(400), Remaining: r.Intn(300) - 3}
		}
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = draw()
		}
		shortcuts += checkExceeds(t, entries, r.Intn(n+1), draw())
	}
	if shortcuts == 0 {
		t.Fatal("no answer came from the build-phase term: the shortcut is never exercised")
	}
	// The case that wrapped: its peak is at least one clamped Remaining.
	wrapped := []Entry{{0, big - 1<<20}, {0, 1}}
	cand := Entry{Current: 1 << 22, Remaining: big - 1<<20 + 1}
	for split := -1; split <= len(wrapped); split++ {
		if got := buildEstimator(wrapped, split).PeakWith(cand); got < maxRemaining {
			t.Fatalf("split %d: PeakWith = %d, want at least %d", split, got, maxRemaining)
		}
	}
	if got := futurePeakWithCandidate(wrapped, cand); got < maxRemaining {
		t.Fatalf("FutureRequiredMemory = %d, want at least %d", got, maxRemaining)
	}
}

// peakOutliers are the values a 0xfe or 0xff selector byte picks in
// FuzzPeakExceeds: both sides of the 32-bit fit, caps around 2^62, and the
// extremes.
var peakOutliers = []int{-1, 0, 1<<32 - 1, 1 << 32, 1<<62 - 1, 1 << 62, -1 << 62, math.MaxInt, math.MinInt}

// FuzzPeakExceeds decodes a batch and a candidate — three bytes an entry,
// the last entry the candidate — and holds Exceeds to PeakWith through
// checkExceeds. A small range keeps ties and negative Remaining frequent; a
// lead byte of 0xff takes Current, and 0xfe Remaining, from peakOutliers.
func FuzzPeakExceeds(f *testing.F) {
	f.Add(uint8(0), []byte{0, 10, 20, 0, 30, 4})
	f.Add(uint8(255), []byte{0, 200, 5, 0, 250, 5, 0, 240, 5, 0, 10, 5})
	// Batches above insertionSortMax, which flush radix-sorts: ties, a
	// Remaining past 2^32 among them, and a candidate spliced after a split.
	wide := func(n int, outlier bool) []byte {
		var data []byte
		for i := 0; i < n; i++ {
			lead, r := byte(0), byte(i*37%11+3)
			if outlier && i%17 == 5 {
				lead, r = 0xfe, 5 // Remaining 1<<62, clamped
			}
			data = append(data, lead, byte(i*53), r)
		}
		return data
	}
	f.Add(uint8(255), wide(insertionSortMax+2, false))
	f.Add(uint8(20), wide(64, true))
	f.Add(uint8(70), wide(90, true))
	f.Fuzz(func(t *testing.T, split uint8, data []byte) {
		var entries []Entry
		for i := 0; i+2 < len(data); i += 3 {
			e := Entry{Current: int(data[i+1]) * 8, Remaining: int(data[i+2]) - 4}
			switch data[i] {
			case 0xff:
				e.Current = peakOutliers[int(data[i+1])%len(peakOutliers)]
			case 0xfe:
				e.Remaining = peakOutliers[int(data[i+2])%len(peakOutliers)]
			}
			entries = append(entries, e)
		}
		if len(entries) == 0 {
			return
		}
		last := len(entries) - 1
		checkExceeds(t, entries[:last], int(split)%(last+2)-1, entries[last])
	})
}

// futurePeakWithCandidate computes M* for entries plus one extra candidate
// without mutating entries: the clone+sort reference PeakWith is checked
// against, one allocation and a full re-sort per call.
func futurePeakWithCandidate(entries []Entry, cand Entry) int {
	tmp := make([]Entry, len(entries)+1)
	copy(tmp, entries)
	tmp[len(entries)] = cand
	return FutureRequiredMemory(tmp)
}

// naiveAdmit is PastFuture.Admit with every M* taken from the clone+sort
// reference instead of the incremental PeakEstimator, and without the
// refusal before drawing: every round predicts the whole batch and the
// queue up to the first refusal, in the same order, through the same
// physical-allocation and threshold gates. It is the oracle Admit is
// checked against and the baseline BenchmarkAdmitHotPath/naive times;
// entries is scratch, returned for reuse.
func naiveAdmit(pf *PastFuture, v *View, queue []*request.Request, entries []Entry) (int, []Entry) {
	entries = entries[:0]
	if len(queue) == 0 {
		return 0, entries
	}
	sampler := pf.usableSampler(v)
	threshold := int(float64(v.CapacityTokens) * (1 - pf.cfg.Reserved))
	multi := len(v.Running)+len(queue) < pf.cfg.SmallBatch
	for _, r := range v.Running {
		r.PredictedLen = pf.predict(sampler, r, multi)
		entries = append(entries, Entry{Current: r.KVLanded(), Remaining: r.PredictedLen - r.Generated + r.PrefillRemaining()})
	}
	admitted, promptNeed := 0, 0
	for _, q := range queue {
		q.PredictedLen = pf.predict(sampler, q, multi)
		cand := Entry{Current: q.Footprint(), Remaining: q.PredictedLen - q.Generated}
		if promptNeed+q.Footprint() > v.FreeTokens || futurePeakWithCandidate(entries, cand) > threshold {
			break
		}
		entries = append(entries, cand)
		promptNeed += q.Footprint()
		admitted++
	}
	return admitted, entries
}

// naiveOracleAdmit is Oracle.Admit with every M* taken from the clone+sort
// reference: the same true-length entries, the same physical-allocation and
// capacity gates. It returns the admitted count and the post-admission
// entries.
func naiveOracleAdmit(v *View, queue []*request.Request) (int, []Entry) {
	var entries []Entry
	for _, r := range v.Running {
		entries = append(entries, Entry{Current: r.KVLanded(), Remaining: r.RemainingTrue() + r.PrefillRemaining()})
	}
	admitted, promptNeed := 0, 0
	for _, q := range queue {
		cand := Entry{Current: q.Footprint(), Remaining: q.RemainingTrue()}
		if promptNeed+q.Footprint() > v.FreeTokens || futurePeakWithCandidate(entries, cand) > v.CapacityTokens {
			break
		}
		entries = append(entries, cand)
		promptNeed += q.Footprint()
		q.PredictedLen = q.TrueOutputLen
		admitted++
	}
	return admitted, entries
}

// lastRankTerm is the term Exceeds checks before it sorts, computed from the
// caller's own entries: the completion point of the last of entries plus
// cand, with every one resident and every one grown by the smallest clamped
// Remaining.
func lastRankTerm(entries []Entry, cand Entry) int {
	sum, r := cand.Current, max(cand.Remaining, 0)
	for _, e := range entries {
		sum += e.Current
		r = min(r, max(e.Remaining, 0))
	}
	return sum + (len(entries)+1)*r
}

// refusedByTerm reports, from a reference round's own entries, whether the
// estimator's build-phase term settled it: nothing was admitted, the head
// passed the physical gate, and the last completion point with the head's
// candidate in the batch is already over the limit.
func refusedByTerm(admitted int, v *View, queue []*request.Request, entries []Entry, head Entry, limit int) bool {
	return admitted == 0 && queue[0].Footprint() <= v.FreeTokens && lastRankTerm(entries, head) > limit
}

// admitTrial draws one randomized admission round's history window and
// returns the constructor of its state. Every call builds a structurally
// identical view and queue from seed, so PredictedLen scratch writes on one
// path cannot leak into another's decisions. A knee round fills at least 90%
// of its capacity with requests far from done, and a window that knows long
// outputs, so most rounds refuse the head.
//
// Some windows hold only short outputs, so that running requests have
// generated past every observation, and some only zero-length ones; an
// eighth of the requests have generated exactly the window's longest. A
// quarter of the windows hold fewer than 32 lengths, so that rounds land on
// both sides of the 16 Past-Future waits for before it trusts the window.
// Each request carries a preset PredictedLen for the NoResample ablation to
// keep, some at or below its Generated; one in 16 running requests and half
// the queued ones carry none.
func admitTrial(r *rng.RNG, seed uint64, knee bool) func() (*View, []*request.Request) {
	w := dist.NewWindow(1 + r.Intn(300))
	histN, longest := r.Intn(400), 600
	if r.Intn(4) == 0 {
		histN = r.Intn(2 * minHistory)
	}
	if knee {
		longest = 4000
	}
	shortest := 1
	switch r.Intn(8) {
	case 0:
		longest = 1 + r.Intn(40) // every observation below most Generated
	case 1:
		shortest, longest = 0, 0 // zero-length outputs only
	}
	for i := 0; i < histN; i++ {
		w.Add(shortest + r.Intn(longest-shortest+1))
	}
	capacity := 500 + r.Intn(20_000)
	return func() (*View, []*request.Request) {
		rr := rng.New(seed)
		mkReq := func(id int64, fresh bool) *request.Request {
			var req *request.Request
			if knee {
				req = request.New(id, 20+rr.Intn(300), 1000+rr.Intn(3000), 4096, 0)
			} else {
				req = request.New(id, 1+rr.Intn(200), 1+rr.Intn(300), 1+rr.Intn(600), 0)
			}
			gen := rr.Intn(min(req.TrueOutputLen, 600) + 1)
			if rr.Intn(8) == 0 {
				gen = w.Sampler().Max() // nothing in the window lies above it
			}
			if fresh {
				gen = 0
			}
			for j := 0; j < gen && !req.Done(); j++ {
				req.EmitToken(float64(j))
			}
			return req
		}
		// preset gives a request a prediction for NoResample to keep, but
		// leaves one in none without.
		preset := func(req *request.Request, none int) {
			if rr.Intn(none) > 0 {
				req.PredictedLen = rr.Intn(req.Generated + 100)
			}
		}
		nRun, nQueue := rr.Intn(20), rr.Intn(24)
		if knee {
			nRun, nQueue = 8+rr.Intn(40), 1+rr.Intn(12)
		}
		used := 0
		var running []*request.Request
		for i := 0; i < nRun; i++ {
			req := mkReq(int64(i), false)
			preset(req, 16)
			used += req.Footprint()
			running = append(running, req)
		}
		var queue []*request.Request
		for i := 0; i < nQueue; i++ {
			req := mkReq(int64(100+i), knee && rr.Intn(4) > 0)
			preset(req, 2)
			queue = append(queue, req)
		}
		c := capacity
		if knee {
			c = used + rr.Intn(used/9+1)
		}
		return &View{
			CapacityTokens: c,
			UsedTokens:     used,
			FreeTokens:     max(c-used, 0),
			Running:        running,
			History:        w,
		}, queue
	}
}

// lightLoad resizes a trial's views to scale × their conservative budget —
// every running and queued request held to its max_new_tokens — so that many
// rounds fit under it, with free × the unused capacity physically free, and
// marks them Unobserved.
func lightLoad(mk func() (*View, []*request.Request), scale, free float64) func() (*View, []*request.Request) {
	return func() (*View, []*request.Request) {
		v, q := mk()
		budget := 0
		for _, r := range v.Running {
			budget += r.KVLanded() + max(r.MaxNewTokens-r.Generated, 1) + r.PrefillRemaining()
		}
		for _, r := range q {
			budget += r.Footprint() + max(r.MaxNewTokens-r.Generated, 1)
		}
		v.CapacityTokens = int(float64(budget) * scale)
		v.FreeTokens = int(float64(max(v.CapacityTokens-v.UsedTokens, 0)) * free)
		v.Unobserved = true
		return v, q
	}
}

// predictions lists the PredictedLen of a round's running batch, then of its
// queue.
func predictions(v *View, queue []*request.Request) []int {
	var p []int
	for _, r := range v.Running {
		p = append(p, r.PredictedLen)
	}
	for _, q := range queue {
		p = append(p, q.PredictedLen)
	}
	return p
}

// checkSameRound fails unless a scheduler's round agrees with its reference
// round: the admitted count, every running and queued PredictedLen against
// wantPred (in predictions' order), and the predicted M* on the view — the
// reference's M* over its post-admission entries when it admitted, 0 when it
// did not.
func checkSameRound(t *testing.T, trial, got, want int, vGot *View, qGot []*request.Request, wantPred []int, entries []Entry) {
	t.Helper()
	if got != want {
		t.Fatalf("trial %d: estimator admitted %d, reference admitted %d", trial, got, want)
	}
	for i, g := range predictions(vGot, qGot) {
		if w := wantPred[i]; g != w {
			t.Fatalf("trial %d: prediction %d of %d running then queued: %d vs %d", trial, i, len(vGot.Running), g, w)
		}
	}
	peak := 0
	if want > 0 {
		peak = FutureRequiredMemory(entries)
	}
	if vGot.PredictedPeak != peak {
		t.Fatalf("trial %d: PredictedPeak %d, reference M* %d", trial, vGot.PredictedPeak, peak)
	}
}

// nextRound moves a round's state on by one decode step: every running
// request that can emits a token, and the admitted prefix leaves the queue
// (it joins no batch — both sides of a comparison move alike).
func nextRound(v *View, queue []*request.Request, admitted int) []*request.Request {
	for _, r := range v.Running {
		if !r.Done() {
			r.EmitToken(1)
		}
	}
	v.PredictedPeak = 0
	return queue[admitted:]
}

// TestPastFutureDecisionsBitIdenticalToNaive: admissions agree between the
// PeakEstimator hot path and the clone+sort oracle (naiveAdmit) on randomized
// views, batches, queues and configurations — anywhere, at the memory knee,
// and at the knee with sampled predictions, where two schedulers seeded alike
// must draw the same lengths in the same order and leave their generators in
// the same state. Multi-sampling, NoResample and windows with
// nothing above a request's Generated are all drawn at random.
//
// Predictions are compared on rounds that priced the batch. A round that
// refused the head before drawing (refusedUndrawn) or admitted under the
// conservative budget before drawing (admittedUndrawn) must leave every
// PredictedLen as it was before the round, and an admission before drawing
// PredictedPeak at 0. The knee arms must contain rounds refused before
// drawing and rounds that the estimator's build-phase term refused on its
// own after drawing. The light arm sizes each view around its conservative
// budget and marks it Unobserved, and must contain rounds admitted before
// drawing.
func TestPastFutureDecisionsBitIdenticalToNaive(t *testing.T) {
	for _, arm := range []struct {
		name                  string
		knee, sampling, light bool
	}{{"random", false, false, false}, {"knee", true, false, false}, {"sampling", true, true, false}, {"light", false, true, true}} {
		t.Run(arm.name, func(t *testing.T) {
			src := rng.New(2024)
			undrawn, shortcuts, fitted, cold, rounds := 0, 0, 0, 0, 0
			for trial := 0; trial < 400; trial++ {
				r := src.Split()
				mkState := admitTrial(r, uint64(trial)*7+13, arm.knee)
				if arm.light {
					free := 1.0
					if r.Intn(2) == 0 {
						free = r.Float64()
					}
					mkState = lightLoad(mkState, 0.5+r.Float64(), free)
				}
				cfg := PastFutureConfig{
					Reserved: float64(r.Intn(3)) * 0.05, Deterministic: !arm.sampling, Quantile: 0.5 + 0.4*r.Float64(),
					Samples:    r.Intn(6),
					NoResample: r.Intn(3) == 0,
				}
				if r.Intn(2) == 0 {
					cfg.SmallBatch = 1 + r.Intn(80) // often above batch + queue: multi-sampled
				}
				seed := r.Uint64()
				mk := func() *PastFuture {
					if arm.sampling {
						cfg.Rng = rng.New(seed) // each scheduler its own stream, seeded alike
					}
					return MustNewPastFuture(cfg)
				}
				pfFast, pfNaive := mk(), mk()
				vFast, qFast := mkState()
				vNaive, qNaive := mkState()
				// Two rounds a decode step apart: under NoResample the second
				// reads back what the first wrote, or chose not to write.
				for round := 0; round < 2; round++ {
					rounds++
					if vFast.History.Len() < minHistory {
						cold++
					}
					before := predictions(vFast, qFast)
					got := pfFast.Admit(vFast, qFast)
					want, entries := naiveAdmit(pfNaive, vNaive, qNaive, nil)
					wantPred := predictions(vNaive, qNaive)
					switch {
					case pfFast.undrawn:
						undrawn++
						wantPred = before
					case pfFast.fitted:
						fitted++
						wantPred, entries = before, nil // PredictedPeak stays 0
					}
					checkSameRound(t, trial, got, want, vFast, qFast, wantPred, entries)
					if arm.sampling {
						if g, w := pfFast.cfg.Rng.Uint64(), pfNaive.cfg.Rng.Uint64(); g != w {
							t.Fatalf("trial %d round %d (undrawn %v, fitted %v): generators diverged: next value %d vs %d",
								trial, round, pfFast.undrawn, pfFast.fitted, g, w)
						}
					}
					if len(qNaive) > 0 && !pfFast.undrawn && !pfFast.fitted {
						head := Entry{Current: qNaive[0].Footprint(), Remaining: qNaive[0].PredictedLen - qNaive[0].Generated}
						threshold := int(float64(vNaive.CapacityTokens) * (1 - cfg.Reserved))
						if refusedByTerm(want, vNaive, qNaive, entries, head, threshold) {
							shortcuts++
						}
					}
					qFast, qNaive = nextRound(vFast, qFast, got), nextRound(vNaive, qNaive, want)
				}
			}
			if arm.knee && undrawn == 0 {
				t.Fatal("no round was refused before drawing: refusedUndrawn is never exercised")
			}
			if arm.knee && shortcuts == 0 {
				t.Fatal("no drawn round was refused by the build-phase term alone: the shortcut is never exercised")
			}
			if arm.light && fitted == 0 {
				t.Fatal("no round was admitted before drawing: admittedUndrawn is never exercised")
			}
			if cold == 0 || cold == rounds {
				t.Fatalf("%d of %d rounds in cold start: both sides of the window gate must be reached", cold, rounds)
			}
			t.Logf("%d rounds (%d cold), %d refused before drawing, %d more by the build-phase term, %d admitted before drawing",
				rounds, cold, undrawn, shortcuts, fitted)
		})
	}
}

// TestOracleDecisionsBitIdenticalToNaive is the oracle's counterpart: its
// admissions and predicted M* agree with a clone+sort reference over the
// true lengths, anywhere and at the memory knee, where some rounds must be
// refused by the build-phase term on its own.
func TestOracleDecisionsBitIdenticalToNaive(t *testing.T) {
	for _, knee := range []bool{false, true} {
		src := rng.New(2025)
		shortcuts := 0
		for trial := 0; trial < 200; trial++ {
			mkState := admitTrial(src.Split(), uint64(trial)*11+5, knee)
			vFast, qFast := mkState()
			vNaive, qNaive := mkState()
			got := NewOracle().Admit(vFast, qFast)
			want, entries := naiveOracleAdmit(vNaive, qNaive)
			checkSameRound(t, trial, got, want, vFast, qFast, predictions(vNaive, qNaive), entries)
			if len(qNaive) > 0 {
				head := Entry{Current: qNaive[0].Footprint(), Remaining: qNaive[0].RemainingTrue()}
				if refusedByTerm(want, vNaive, qNaive, entries, head, vNaive.CapacityTokens) {
					shortcuts++
				}
			}
		}
		if knee && shortcuts == 0 {
			t.Fatal("no knee round was refused by the build-phase term alone")
		}
	}
}

// hotPathState builds the benchmark scenario: a warm history window, a
// running batch of 256 requests, and a 64-deep queue.
func hotPathState(batch, queue int) (*View, []*request.Request) {
	r := rng.New(7)
	w := dist.NewWindow(1000)
	for i := 0; i < 1000; i++ {
		w.Add(64 + r.Intn(1024))
	}
	used := 0
	running := make([]*request.Request, 0, batch)
	for i := 0; i < batch; i++ {
		req := request.New(int64(i), 64+r.Intn(256), 1024, 2048, 0)
		for j := 0; j < 16+r.Intn(128); j++ {
			req.EmitToken(float64(j))
		}
		used += req.Footprint()
		running = append(running, req)
	}
	queued := make([]*request.Request, 0, queue)
	for i := 0; i < queue; i++ {
		queued = append(queued, request.New(int64(batch+i), 64+r.Intn(256), 512, 2048, 0))
	}
	capacity := used * 6 // sized so the loop admits a prefix, then rejects
	return &View{
		CapacityTokens: capacity,
		UsedTokens:     used,
		FreeTokens:     capacity - used,
		Running:        running,
		History:        w,
	}, queued
}

// kneeState is hotPathState's batch at the memory knee — capacity 5% above
// what it holds, so the queue's head still fits physically, but the batch's
// landed KV, the head's prompt and one token for each of the 49 are already
// over the threshold: the round is refused before anything is drawn.
func kneeState(batch int) (*View, []*request.Request) {
	return kneeStateAt(batch, 21, 20)
}

// drawnKneeState is kneeState with capacity 1.5× what the batch holds: the
// floor passes, and only the build-phase term over the drawn predictions,
// ΣCurrent + (n+1)·min Remaining, refuses the head.
func drawnKneeState(batch int) (*View, []*request.Request) {
	return kneeStateAt(batch, 3, 2)
}

// kneeStateAt sizes hotPathState's capacity at num/den of what the batch
// holds.
func kneeStateAt(batch, num, den int) (*View, []*request.Request) {
	v, q := hotPathState(batch, 8)
	v.CapacityTokens = v.UsedTokens * num / den
	v.FreeTokens = v.CapacityTokens - v.UsedTokens
	return v, q
}

// lightState is hotPathState's 16-request batch and one candidate, with
// capacity for twice their conservative budget and the round Unobserved: the
// candidate is admitted before drawing.
func lightState() (*View, []*request.Request) {
	v, q := hotPathState(16, 1)
	v.CapacityTokens = 0
	for _, r := range v.Running {
		v.CapacityTokens += 2 * (r.Footprint() + r.MaxNewTokens - r.Generated)
	}
	v.CapacityTokens += 2 * (q[0].Footprint() + q[0].MaxNewTokens)
	v.FreeTokens = v.CapacityTokens - v.UsedTokens
	v.Unobserved = true
	return v, q
}

// refusesWithoutSort reports whether Admit refused the whole queue without
// a sort, and how: before drawing (refusedUndrawn, the estimator left empty)
// when undrawn is set, by the estimator's build-phase term over the drawn
// batch (the estimator left unsorted) when it is not.
func refusesWithoutSort(pf *PastFuture, v *View, q []*request.Request, undrawn bool) bool {
	if pf.Admit(v, q) != 0 || pf.undrawn != undrawn {
		return false
	}
	if undrawn {
		return pf.est.Len() == 0
	}
	return pf.est.unsorted
}

// repeatsByCertificate reports whether a round of the same Epoch as a
// refusal before drawing, one decode step later, is refused by the
// certificate (repeatRefusal): the refusal's g0 survives it, where the full
// pass would have taken the advanced Generated. It leaves the batch as it
// found it, under a new Epoch whose refusal has made the certificate, so
// every further round of v as it stands repeats it.
func repeatsByCertificate(pf *PastFuture, v *View, q []*request.Request) bool {
	v.Epoch++
	if pf.Admit(v, q) != 0 || !pf.undrawn {
		return false
	}
	g0 := pf.cert.g0
	for _, r := range v.Running {
		r.Generated++
	}
	ok := pf.Admit(v, q) == 0 && pf.undrawn && pf.cert.g0 == g0
	for _, r := range v.Running {
		r.Generated--
	}
	v.Epoch++
	return ok && pf.Admit(v, q) == 0 && pf.undrawn
}

// TestAdmitLightAllocs: an admission under the conservative budget, before
// drawing, allocates nothing.
func TestAdmitLightAllocs(t *testing.T) {
	pf := MustNewPastFuture(PastFutureConfig{Reserved: 0.03, Rng: rng.New(3)})
	v, q := lightState()
	if pf.Admit(v, q) != 1 || !pf.fitted {
		t.Fatal("the light round is not admitted before drawing")
	}
	if allocs := testing.AllocsPerRun(100, func() { pf.Admit(v, q) }); allocs != 0 {
		t.Fatalf("an admission before drawing allocates %v per round, want 0", allocs)
	}
}

// TestAdmitRefusalAllocs: a refusal at the knee — the common round of a
// memory-bound engine — allocates nothing and is settled without a sort,
// whether it is refused before drawing, by the certificate of such a refusal
// earlier in the same Epoch, or by the build-phase term after drawing.
func TestAdmitRefusalAllocs(t *testing.T) {
	for _, c := range []struct {
		name    string
		state   func(int) (*View, []*request.Request)
		undrawn bool
		repeat  bool
	}{{"undrawn", kneeState, true, false}, {"repeat", kneeState, true, true}, {"drawn", drawnKneeState, false, false}} {
		pf := MustNewPastFuture(PastFutureConfig{Reserved: 0.03, Deterministic: true})
		v, q := c.state(48)
		if !refusesWithoutSort(pf, v, q, c.undrawn) {
			t.Fatalf("%s: knee state is not refused the way it should be", c.name)
		}
		if c.repeat && !repeatsByCertificate(pf, v, q) {
			t.Fatalf("%s: the round after a decode step is not refused by the certificate", c.name)
		}
		if allocs := testing.AllocsPerRun(100, func() { pf.Admit(v, q) }); allocs != 0 {
			t.Fatalf("%s: a knee refusal allocates %v per round, want 0", c.name, allocs)
		}
	}
}

// TestAdmittedUndrawnAtTheCeiling: when every prediction lands on its
// max_new_tokens and every request has the same remaining length, M* equals
// the conservative budget, so the ceiling is tight. With the threshold at
// the budget the round admits the whole queue before drawing; one token
// below it, the round prices the batch and refuses the last candidate. Both
// in cold start and from a warm window whose every observation is above the
// cap, where the round must also leave the generator where a priced twin
// leaves it. A conservative length of 2^32 or more takes the priced path,
// one that would wrap the ceiling's sum included.
func TestAdmittedUndrawnAtTheCeiling(t *testing.T) {
	state := func(warm bool, maxNew int) (*View, []*request.Request) {
		var w *dist.Window
		if warm {
			w = dist.NewWindow(64)
			for i := 0; i < 64; i++ {
				w.Add(1000 + i)
			}
		}
		v := &View{History: w}
		for i := 0; i < 3; i++ {
			r := request.New(int64(i), 100, 1000, 50, 0)
			for j := 0; j < 10; j++ {
				r.EmitToken(float64(j))
			}
			v.Running = append(v.Running, r)
			v.UsedTokens += r.Footprint()
		}
		q := []*request.Request{request.New(10, 100, 1000, 40, 0), request.New(11, 100, 1000, maxNew, 0)}
		return v, q
	}
	const budget = 3*(110+40) + 2*(100+40) // M* of the batch and both candidates
	for _, warm := range []bool{false, true} {
		for _, c := range []struct {
			capacity, maxNew, admitted int
			fitted                     bool
		}{{budget, 40, 2, true}, {budget - 1, 40, 1, false}, {budget, 1 << 32, 1, false}, {budget, math.MaxInt, 1, false}} {
			run := func(unobserved bool) (*PastFuture, *View, int) {
				pf := MustNewPastFuture(PastFutureConfig{Rng: rng.New(5)})
				v, q := state(warm, c.maxNew)
				v.CapacityTokens, v.FreeTokens, v.Unobserved = c.capacity, c.capacity-v.UsedTokens, unobserved
				return pf, v, pf.Admit(v, q)
			}
			pf, v, got := run(true)
			twin, _, want := run(false)
			if got != c.admitted || want != c.admitted || pf.fitted != c.fitted {
				t.Fatalf("warm %v, capacity %d, max_new %d: admitted %d (fitted %v), priced twin %d; want %d (fitted %v)",
					warm, c.capacity, c.maxNew, got, pf.fitted, want, c.admitted, c.fitted)
			}
			if c.fitted && (v.PredictedPeak != 0 || v.Running[0].PredictedLen != 0) {
				t.Fatalf("warm %v: an admission before drawing wrote PredictedPeak %d, PredictedLen %d",
					warm, v.PredictedPeak, v.Running[0].PredictedLen)
			}
			if g, w := pf.cfg.Rng.Uint64(), twin.cfg.Rng.Uint64(); g != w {
				t.Fatalf("warm %v, capacity %d: generators diverged: next value %d vs %d", warm, c.capacity, g, w)
			}
		}
	}
}

// TestRefusedUndrawnKeepsNoWrapRange: a batch holding a Current of 2^32 or
// more is over any floor, yet the round is not refused before drawing: the
// floor under M* holds only in Exceeds' no-wrap range, so the round draws
// and the estimator decides. Nor does a certificate carry a refusal across
// that edge: a batch refused just under it, then decoded past it in the same
// Epoch, draws too.
func TestRefusedUndrawnKeepsNoWrapRange(t *testing.T) {
	pf := MustNewPastFuture(PastFutureConfig{Reserved: 0.03, Deterministic: true})
	v, q := kneeState(48)
	v.Running[0].InputLen = 1 << 32
	if got := pf.Admit(v, q); got != 0 || pf.undrawn {
		t.Fatalf("admitted %d, refused before drawing %v; want a refusal after drawing", got, pf.undrawn)
	}
	v.Epoch = 1
	v.Running[0].InputLen = 1<<32 - v.Running[0].Generated - 10
	if got := pf.Admit(v, q); got != 0 || !pf.undrawn {
		t.Fatalf("just under 2^32: admitted %d, refused before drawing %v; want a refusal before drawing", got, pf.undrawn)
	}
	for _, r := range v.Running {
		r.Generated += 20
	}
	if got := pf.Admit(v, q); got != 0 || pf.undrawn {
		t.Fatalf("decoded past 2^32 in one Epoch: admitted %d, refused before drawing %v; want a refusal after drawing", got, pf.undrawn)
	}
}

// BenchmarkAdmitHotPath measures one deterministic Past-Future admission
// decision over batch=256, queue=64: the incremental PeakEstimator hot path
// against the naive clone+sort oracle (naiveAdmit). The estimator path must
// run with zero allocations in steady state (acceptance: 0 allocs/op, ≥5×
// faster). /refuse is the knee's first refusal of an Epoch: 48 running
// requests, the head refused before anything is drawn. /refuse-repeat is
// every later round of that Epoch, refused by the first one's certificate
// without walking the batch. /refuse-drawn is the same batch with more
// headroom, the head refused by the estimator's build-phase term over the
// drawn predictions. /admit-wide is a round that draws for 50 running
// requests and admits, so its M* comes from a radix sort of 50 entries and
// more. /admit-light is a warm 16-request batch and one candidate that the
// conservative budget clears: admitted before drawing, nothing drawn or
// sorted. All run at 0 allocs/op.
func BenchmarkAdmitHotPath(b *testing.B) {
	var scratch []Entry
	naive := func(pf *PastFuture, v *View, q []*request.Request) (n int) {
		n, scratch = naiveAdmit(pf, v, q, scratch)
		return n
	}
	hot := func() (*View, []*request.Request) { return hotPathState(256, 64) }
	knee := func() (*View, []*request.Request) { return kneeState(48) }
	for _, variant := range []struct {
		name    string
		state   func() (*View, []*request.Request)
		admit   func(*PastFuture, *View, []*request.Request) int
		refuses bool // the round is a refusal; undrawn says which kind
		undrawn bool
		repeat  bool // under the certificate of an earlier round
	}{
		{"estimator", hot, (*PastFuture).Admit, false, false, false},
		{"naive", hot, naive, false, false, false},
		{"refuse", knee, (*PastFuture).Admit, true, true, false},
		{"refuse-repeat", knee, (*PastFuture).Admit, true, true, true},
		{"refuse-drawn", func() (*View, []*request.Request) { return drawnKneeState(48) }, (*PastFuture).Admit, true, false, false},
		{"admit-wide", func() (*View, []*request.Request) { return hotPathState(50, 8) }, (*PastFuture).Admit, false, false, false},
		{"admit-light", lightState, (*PastFuture).Admit, false, false, false},
	} {
		b.Run(variant.name, func(b *testing.B) {
			pf := MustNewPastFuture(PastFutureConfig{Reserved: 0.03, Deterministic: true})
			v, q := variant.state()
			switch {
			case variant.refuses:
				if !refusesWithoutSort(pf, v, q, variant.undrawn) {
					b.Fatal("knee scenario is not refused the way it should be")
				}
				if variant.repeat && !repeatsByCertificate(pf, v, q) {
					b.Fatal("knee scenario is not refused by the certificate")
				}
			case variant.admit(pf, v, q) == 0:
				b.Fatal("benchmark scenario admits nothing; not exercising the loop")
			case variant.name == "admit-wide" && (len(v.Running) <= insertionSortMax || pf.est.unsorted):
				b.Fatal("the round did not radix-sort its batch")
			case variant.name == "admit-light" && (!pf.fitted || pf.est.Len() != 0):
				b.Fatal("the round drew or sorted its batch")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = variant.admit(pf, v, q)
			}
		})
	}
}

// BenchmarkFutureRequiredMemory compares one full-batch M* evaluation:
// the reference clone+sort+scan against a warm PeakEstimator rebuild.
func BenchmarkFutureRequiredMemory(b *testing.B) {
	mkEntries := func(n int) []Entry {
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Current: 1000 + i*13%997, Remaining: (i * 37) % 4096}
		}
		return entries
	}
	for _, n := range []int{256, 1024} {
		entries := mkEntries(n)
		b.Run("reference/"+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = FutureRequiredMemory(entries)
			}
		})
		b.Run("estimator/"+itoa(n), func(b *testing.B) {
			var est PeakEstimator
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				est.Reset()
				for _, e := range entries {
					est.Push(e)
				}
				_ = est.Peak()
			}
		})
	}
}

// BenchmarkPeakEstimatorPush measures the incremental Push into an
// estimator whose aggregates are built — the O(B) splice-and-repair a
// routing probe's placement pays — on warm estimators up to day-trace batch
// widths (an admission round's estimator has no aggregates, and its Push
// only splices). Result on the reference
// machine: ~5µs/op at B=1024, ~19µs at B=4096, ~71µs at B=16384 —
// linear as predicted, 0 allocs. One splice per *admitted* request is
// noise next to the admission loop's own scan (BenchmarkAdmitHotPath:
// ~63µs at B=256, and it runs once per queued candidate), and real
// batches sit at B≈10–300, so the linear splice stays: a gapped or tree
// layout would buy nothing measurable and cost the zero-allocation
// property.
func BenchmarkPeakEstimatorPush(b *testing.B) {
	const burst = 256 // incremental pushes per untimed rebuild
	for _, n := range []int{1024, 4096, 16384} {
		base := make([]Entry, n)
		for i := range base {
			base[i] = Entry{Current: 1000 + i*13%997, Remaining: (i * 37) % 4096}
		}
		b.Run("B="+itoa(n), func(b *testing.B) {
			var est PeakEstimator
			rebuild := func() {
				est.Reset()
				for _, e := range base {
					est.Push(e)
				}
				est.PeakWith(Entry{}) // sorts and builds the aggregates: later pushes splice and repair them
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += burst {
				b.StopTimer()
				rebuild()
				b.StartTimer()
				for j := 0; j < burst && i+j < b.N; j++ {
					est.Push(Entry{Current: 700 + j, Remaining: (j * 53) % 4096})
				}
			}
		})
	}
}

// itoa avoids strconv in this hot-path test file's benchmark names.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
