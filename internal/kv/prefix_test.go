package kv

import "testing"

func prefixPool(t testing.TB, capacity, blockSize, blockTokens, offloadCap int) *Pool {
	t.Helper()
	p := NewPool(capacity, blockSize)
	p.EnablePrefixCache(PrefixConfig{BlockTokens: blockTokens, OffloadCapacityTokens: offloadCap})
	return p
}

func hashes(n int, salt uint64) []uint64 {
	out := make([]uint64, n)
	h := salt
	for i := range out {
		h = PrefixHash(h, uint64(i))
		out[i] = h
	}
	return out
}

// prefixHandles maps the tests' request ids to the handles they hold, so
// the scenarios below keep reading in terms of "request 1, request 2".
type prefixHandles map[int64]Handle

func (hs prefixHandles) free(p *Pool, id int64) int {
	h := hs[id]
	delete(hs, id)
	return p.Free(h)
}

func (hs prefixHandles) mustPrefixed(t *testing.T, p *Pool, id int64, tokens int, hashes []uint64, restore int) (hit, restored int) {
	t.Helper()
	h, hit, restored, ok := p.AllocatePrefixed(tokens, hashes, restore)
	if !ok {
		t.Fatalf("AllocatePrefixed(%d, %d tokens) failed", id, tokens)
	}
	hs[id] = h
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return hit, restored
}

// TestPrefixSharedAccountedOnce pins the refcounted-accounting rule: two
// requests sharing a prefix consume its physical blocks once, and
// FragmentationWaste never counts shared or cached blocks as waste.
func TestPrefixSharedAccountedOnce(t *testing.T) {
	p := prefixPool(t, 4096, 16, 64, 0)
	held := prefixHandles{}
	hs := hashes(4, 1) // 256 shared prompt tokens

	if hit, _ := held.mustPrefixed(t, p, 1, 300, hs, 0); hit != 0 {
		t.Fatalf("cold allocation hit %d tokens", hit)
	}
	phys1 := p.PhysicalUsedTokens()
	if phys1 != 256+48 { // 4 prefix blocks + 44 private tokens in 3 phys blocks
		t.Fatalf("physical after first = %d", phys1)
	}
	if hit, _ := held.mustPrefixed(t, p, 2, 300, hs, 0); hit != 256 {
		t.Fatalf("second request hit %d tokens, want 256", hit)
	}
	// The shared 256 tokens appear once: only request 2's 44 private
	// tokens (3 blocks = 48 slots) are new.
	if got := p.PhysicalUsedTokens(); got != phys1+48 {
		t.Fatalf("physical after second = %d, want %d", got, phys1+48)
	}
	if got := p.UsedTokens(); got != 256+44+44 {
		t.Fatalf("logical = %d, want shared-once %d", got, 256+44+44)
	}
	// Waste is the two partially filled private tail blocks only.
	if got := p.FragmentationWaste(); got != 2*(48-44) {
		t.Fatalf("fragmentation waste = %d, want %d", got, 2*(48-44))
	}

	// Free one sharer: the shared blocks stay (pinned by the other), only
	// its private tail returns to the free list.
	if got := held.free(p, 1); got != 300 {
		t.Fatalf("Free returned %d, want 300", got)
	}
	if got := p.PhysicalUsedTokens(); got != phys1 {
		t.Fatalf("physical after one free = %d, want %d", got, phys1)
	}
	// Free the last sharer: blocks become reclaimable cache — physically
	// resident, logically free, not fragmentation.
	held.free(p, 2)
	if got := p.ReclaimableTokens(); got != 256 {
		t.Fatalf("reclaimable = %d, want 256", got)
	}
	if got := p.UsedTokens(); got != 0 {
		t.Fatalf("logical after frees = %d", got)
	}
	if got := p.FragmentationWaste(); got != 0 {
		t.Fatalf("waste after frees = %d", got)
	}
	if got := p.FreeTokens(); got != p.CapacityTokens() {
		t.Fatalf("free tokens = %d, want full capacity %d", got, p.CapacityTokens())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixLRUReclaim fills the pool with cold cache and verifies demand
// reclaims the oldest unpinned blocks first, spilling them to the offload
// store.
func TestPrefixLRUReclaim(t *testing.T) {
	p := prefixPool(t, 256, 1, 64, -1)
	held := prefixHandles{}
	a, b, c, d := hashes(1, 1), hashes(1, 2), hashes(1, 3), hashes(1, 4)
	held.mustPrefixed(t, p, 1, 64, a, 0)
	held.mustPrefixed(t, p, 2, 64, b, 0)
	held.mustPrefixed(t, p, 3, 64, c, 0)
	held.free(p, 1) // a oldest reclaimable
	held.free(p, 2)
	held.free(p, 3)

	// A fourth prefix fits only by evicting; a (LRU) must go, b must stay.
	held.mustPrefixed(t, p, 4, 128, d, 0)
	if got := p.MatchPrefix(a); got != 0 {
		t.Fatalf("LRU block survived eviction: match=%d", got)
	}
	if got := p.MatchPrefix(b); got != 64 {
		t.Fatalf("MRU-side block evicted early: match=%d", got)
	}
	st := p.PrefixStats()
	if st.EvictedBlocks != 1 || st.SpilledBlocks != 1 {
		t.Fatalf("evicted=%d spilled=%d, want 1/1", st.EvictedBlocks, st.SpilledBlocks)
	}
	if hb, ob := p.MatchPrefixDetail(a); hb != 0 || ob != 1 {
		t.Fatalf("evicted block not offloaded: hit=%d off=%d", hb, ob)
	}
}

// TestPrefixOffloadRestore spills a prefix, then restores it: the tokens
// come back as restored (wire-priced), not as recompute, and leave the
// offload store.
func TestPrefixOffloadRestore(t *testing.T) {
	p := prefixPool(t, 256, 1, 64, -1)
	held := prefixHandles{}
	a := hashes(2, 7)
	held.mustPrefixed(t, p, 1, 128, a, 0)
	held.free(p, 1)
	held.mustPrefixed(t, p, 2, 256, hashes(4, 9), 0) // forces both blocks out
	held.free(p, 2)
	if hb, ob := p.MatchPrefixDetail(a); hb != 0 || ob != 2 {
		t.Fatalf("expected both blocks offloaded, hit=%d off=%d", hb, ob)
	}

	hit, restored := held.mustPrefixed(t, p, 3, 128, a, 2)
	if hit != 0 || restored != 128 {
		t.Fatalf("hit=%d restored=%d, want 0/128", hit, restored)
	}
	if hb, ob := p.MatchPrefixDetail(a); hb != 2 || ob != 0 {
		t.Fatalf("restore left store inconsistent: hit=%d off=%d", hb, ob)
	}
	st := p.PrefixStats()
	if st.RestoredTokens != 128 {
		t.Fatalf("restored tokens = %d", st.RestoredTokens)
	}

	// With restores forbidden, the same blocks are recomputed instead.
	held.free(p, 3)
	held.mustPrefixed(t, p, 4, 256, hashes(4, 11), 0)
	held.free(p, 4)
	hit, restored = held.mustPrefixed(t, p, 5, 128, a, 0)
	if hit != 0 || restored != 0 {
		t.Fatalf("restoreBlocks=0 still reused: hit=%d restored=%d", hit, restored)
	}
}

// TestPrefixOffloadCapacity bounds the host store: the oldest spilled
// identity is dropped once the cap is reached.
func TestPrefixOffloadCapacity(t *testing.T) {
	p := prefixPool(t, 128, 1, 64, 64) // host store holds exactly one block
	held := prefixHandles{}
	a, b := hashes(1, 1), hashes(1, 2)
	held.mustPrefixed(t, p, 1, 64, a, 0)
	held.free(p, 1)
	held.mustPrefixed(t, p, 2, 64, b, 0)
	held.free(p, 2)
	held.mustPrefixed(t, p, 3, 128, hashes(2, 3), 0) // evicts and spills both
	if _, ob := p.MatchPrefixDetail(a); ob != 0 {
		t.Fatal("capped store kept the older spill")
	}
	if _, ob := p.MatchPrefixDetail(b); ob != 1 {
		t.Fatal("capped store lost the newer spill")
	}
}

// TestPrefixDropOnCrash models a replica crash: resident cache is lost,
// the host offload store survives.
func TestPrefixDropOnCrash(t *testing.T) {
	p := prefixPool(t, 256, 1, 64, -1)
	held := prefixHandles{}
	a, b := hashes(1, 1), hashes(2, 2)
	held.mustPrefixed(t, p, 1, 64, a, 0)
	held.free(p, 1)
	held.mustPrefixed(t, p, 2, 256, b, 0) // evicts a to offload
	held.free(p, 2)

	if got := p.DropPrefixCache(); got != 2 {
		t.Fatalf("dropped %d blocks, want 2", got)
	}
	if got := p.MatchPrefix(b); got != 0 {
		t.Fatal("resident cache survived the crash")
	}
	if _, ob := p.MatchPrefixDetail(a); ob != 1 {
		t.Fatal("offload store did not survive the crash")
	}
	if p.FreeTokens() != p.CapacityTokens() {
		t.Fatal("drop did not return blocks to the free list")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixPartialChainHole verifies an eviction hole mid-chain costs only
// the hole: surviving later blocks still count as hits.
func TestPrefixPartialChainHole(t *testing.T) {
	p := prefixPool(t, 1024, 1, 64, 0)
	held := prefixHandles{}
	hs := hashes(3, 5)
	held.mustPrefixed(t, p, 1, 192, hs, 0)
	// Re-pin only blocks 0 and 2, then drop the middle from cache by
	// filling memory while 0 and 2 are pinned.
	hit, _ := held.mustPrefixed(t, p, 2, 192, hs, 0)
	if hit != 192 {
		t.Fatalf("warm hit = %d, want 192", hit)
	}
	held.free(p, 1)
	held.free(p, 2)
	// All three reclaimable now; a large cold request evicts the oldest.
	held.mustPrefixed(t, p, 3, 1024-64-64, hashes(2, 6), 0)
	held.free(p, 3)
	hit, _ = held.mustPrefixed(t, p, 4, 192, hs, 0)
	if hit != 128 {
		t.Fatalf("hole hit = %d, want 128 (two surviving blocks)", hit)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPlainAllocateReclaimsCache keeps non-prefixed allocations first-class
// on a caching pool: cold cache yields to real demand.
func TestPlainAllocateReclaimsCache(t *testing.T) {
	p := prefixPool(t, 128, 1, 64, 0)
	held := prefixHandles{}
	held.mustPrefixed(t, p, 1, 128, hashes(2, 1), 0)
	held.free(p, 1)
	if !p.CanAllocate(128) {
		t.Fatal("CanAllocate ignored reclaimable cache")
	}
	if _, ok := p.Allocate(128); !ok {
		t.Fatal("plain allocation failed against reclaimable cache")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := p.PrefixStats().EvictedBlocks; got != 2 {
		t.Fatalf("evicted = %d, want 2", got)
	}
}

// TestPrefixAllocateRejectsWhenPinned verifies feasibility respects pins:
// pinned blocks are not reclaimable, so an oversized request fails cleanly.
func TestPrefixAllocateRejectsWhenPinned(t *testing.T) {
	p := prefixPool(t, 128, 1, 64, 0)
	held := prefixHandles{}
	held.mustPrefixed(t, p, 1, 128, hashes(2, 1), 0)
	if _, _, _, ok := p.AllocatePrefixed(64, hashes(1, 2), 0); ok {
		t.Fatal("allocation succeeded with every block pinned")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixDuplicateHashPanics holds AllocatePrefixed to its precondition:
// a chain that names one hash twice would pin or create the block once but
// cover its tokens twice, leaving UsedTokens short ({a, b, b} over 202
// tokens would read 138). A repeat of a fresh block and a repeat of a
// resident hit both panic.
func TestPrefixDuplicateHashPanics(t *testing.T) {
	a, b := hashes(1, 1)[0], hashes(1, 2)[0]
	p := prefixPool(t, 1024, 1, 64, 0)
	mustPanic(t, "chain {a, b, b}", func() { p.AllocatePrefixed(202, []uint64{a, b, b}, 0) })

	p = prefixPool(t, 1024, 1, 64, 0)
	held := prefixHandles{}
	held.mustPrefixed(t, p, 1, 64, []uint64{a}, 0)
	held.free(p, 1)
	mustPanic(t, "chain {a, a} over a resident a", func() { p.AllocatePrefixed(128, []uint64{a, a}, 0) })
}

// TestPrefixRestoreOutlivesItsOwnSpill restores the oldest identity of a
// full offload store while the memory for it must first be reclaimed: the
// eviction's spill pushes that very identity out of the store. The block is
// restored all the same, and the store ends up holding the evicted block
// alone.
func TestPrefixRestoreOutlivesItsOwnSpill(t *testing.T) {
	p := prefixPool(t, 128, 1, 64, 64) // two resident blocks, a one-block store
	held := prefixHandles{}
	a, b := hashes(1, 1), hashes(2, 2)
	held.mustPrefixed(t, p, 1, 64, a, 0)
	held.free(p, 1)
	held.mustPrefixed(t, p, 2, 128, b, 0) // evicts a into the store
	held.free(p, 2)
	if _, restored := held.mustPrefixed(t, p, 3, 64, a, 1); restored != 64 {
		t.Fatalf("restored %d tokens, want 64", restored)
	}
	if hb, ob := p.MatchPrefixDetail(b); hb != 1 || ob != 1 {
		t.Fatalf("b: %d resident, %d offloaded; want its first block spilled", hb, ob)
	}
	if st := p.PrefixStats(); st.OffloadBlocks != 1 || st.RestoredTokens != 64 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCheckInvariantsCatchesPrefixCorruption breaks a warm cache's table,
// slabs and lists by hand, one way at a time, and expects CheckInvariants
// to name each.
func TestCheckInvariantsCatchesPrefixCorruption(t *testing.T) {
	fresh := func() (*Pool, *prefixState) {
		p := prefixPool(t, 512, 1, 64, -1)
		held := prefixHandles{}
		held.mustPrefixed(t, p, 1, 256, hashes(4, 1), 0)
		held.free(p, 1)
		held.mustPrefixed(t, p, 2, 384, hashes(6, 2), 0) // spills two of the first chain
		held.mustPrefixed(t, p, 3, 64, hashes(1, 2), 0)  // pins one block twice
		return p, p.prefix
	}
	corruptions := map[string]func(px *prefixState){
		"entry moved off its probe run": func(px *prefixState) {
			for i, e := range px.table {
				if e.ref != 0 {
					px.table[i], px.table[(i+len(px.table)/2)&(len(px.table)-1)] = tableEntry{}, e
					return
				}
			}
		},
		"entry naming another slot": func(px *prefixState) {
			for i := range px.table {
				if px.table[i].ref > 0 {
					px.table[i].ref = int32(len(px.blocks)) + 1
					return
				}
			}
		},
		"refs drift":                  func(px *prefixState) { px.blocks[0].refs++ },
		"reclaim list cut":            func(px *prefixState) { px.lruTail = px.lruHead },
		"offload count drift":         func(px *prefixState) { px.offloaded++ },
		"live slots on the free list": func(px *prefixState) { px.blockFree = px.lruHead },
	}
	for name, corrupt := range corruptions {
		p, px := fresh()
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		corrupt(px)
		if p.CheckInvariants() == nil {
			t.Errorf("%s not detected", name)
		}
	}
}

// prefixChurn drives a pool of 4096 prefix blocks over a 1024-block
// offload store with four-block chains, allocated with restores allowed and
// freed at once. Steps alternate two families: a, a cycle of 532 chains,
// each back 40 steps after the cache evicted it, so it restores from the
// store; and b, a cycle of 4096, always long gone, so it is recomputed. The
// first 1024 steps fill the cache without evicting; from then on every step
// reclaims four blocks and spills them, and once the store is full, drops
// its oldest four.
type prefixChurn struct{ a, b [][]uint64 }

func newPrefixChurn() *prefixChurn {
	c := &prefixChurn{a: make([][]uint64, 532), b: make([][]uint64, 4096)}
	for i := range c.a {
		c.a[i] = hashes(4, uint64(i+1))
	}
	for i := range c.b {
		c.b[i] = hashes(4, uint64(i+1)<<32)
	}
	return c
}

// fill returns a new pool whose cache the first 1024 steps fill exactly.
func (c *prefixChurn) fill(tb testing.TB) *Pool {
	p := prefixPool(tb, 4096*64, 16, 64, 1024*64)
	for n := 0; n < 1024; n++ {
		c.step(tb, p, n)
	}
	return p
}

func (c *prefixChurn) step(tb testing.TB, p *Pool, n int) {
	chain := c.a[n/2%len(c.a)]
	if n%2 == 1 {
		chain = c.b[n/2%len(c.b)]
	}
	h, _, _, ok := p.AllocatePrefixed(len(chain)*64, chain, len(chain))
	if !ok {
		tb.Fatalf("step %d: allocation failed", n)
	}
	p.Free(h)
}

// TestPrefixCacheAllocs pins the flat cache's allocation behaviour: filling
// a pool's cache to capacity allocates O(log n) times — the table and the
// resident slab double as they grow — and churning the full cache through
// reclaim, spill, drop and restore allocates nothing.
func TestPrefixCacheAllocs(t *testing.T) {
	c := newPrefixChurn()
	var p *Pool
	fillAllocs := testing.AllocsPerRun(1, func() { p = c.fill(t) })
	if st := p.PrefixStats(); st.ResidentBlocks != 4096 || st.EvictedBlocks != 0 {
		t.Fatalf("fill left %+v, want 4096 resident blocks and no eviction", st)
	}
	t.Logf("filling 4096 blocks allocated %v times", fillAllocs)
	if limit := 3 * 12.0; fillAllocs > limit { // 12 = log2(4096)
		t.Fatalf("filling 4096 blocks allocated %v times, want at most %v", fillAllocs, limit)
	}
	n := 1024
	for ; n < 3024; n++ { // past the store filling up
		c.step(t, p, n)
	}
	if got := testing.AllocsPerRun(500, func() { c.step(t, p, n); n++ }); got != 0 {
		t.Fatalf("churn allocated %v times per step, want 0", got)
	}
	st := p.PrefixStats()
	if dropped := st.SpilledBlocks - st.RestoredTokens/64 - int64(st.OffloadBlocks); st.RestoredTokens == 0 || dropped <= 0 {
		t.Fatalf("churn left %+v: want restores, and spills the full store dropped", st)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPrefixChurn times one prefixChurn step of a full cache: a
// four-block allocation that reclaims and spills four blocks into a full
// offload store — restoring its own four from it on every other step —
// and its free. Steady state must not allocate.
func BenchmarkPrefixChurn(b *testing.B) {
	c := newPrefixChurn()
	p := c.fill(b)
	n := 1024
	for ; n < 3024; n++ {
		c.step(b, p, n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step(b, p, n)
		n++
	}
}

// BenchmarkPrefixMatch measures the routing probe's lookup of every block
// of a chain plus a full pin/unpin churn cycle on a warm cache — the
// per-arrival cost of cache-affinity routing. Steady state must not
// allocate.
func BenchmarkPrefixMatch(b *testing.B) {
	p := prefixPool(b, 1<<20, 16, 64, 0)
	const chains = 64
	hs := make([][]uint64, chains)
	for i := range hs {
		hs[i] = hashes(32, uint64(i+1)) // 2048-token prompts
		h, _, _, ok := p.AllocatePrefixed(32*64+17, hs[i], 0)
		if !ok {
			b.Fatal("warmup allocation failed")
		}
		p.Free(h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := hs[i%chains]
		if got := p.MatchPrefix(c); got != 32*64 {
			b.Fatalf("match = %d", got)
		}
		h, _, _, ok := p.AllocatePrefixed(32*64+17, c, 0)
		if !ok {
			b.Fatal("allocate failed")
		}
		p.Free(h)
	}
}
