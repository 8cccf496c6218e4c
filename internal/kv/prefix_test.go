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

// BenchmarkPrefixMatch measures the routing probe's longest-prefix lookup
// plus a full pin/unpin churn cycle on a warm cache — the per-arrival cost
// of cache-affinity routing. Steady state must not allocate.
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
