package kv

import (
	"testing"
	"testing/quick"
)

// mustAlloc allocates or fails the test, returning the handle.
func mustAlloc(t testing.TB, p *Pool, tokens int) Handle {
	t.Helper()
	h, ok := p.Allocate(tokens)
	if !ok {
		t.Fatalf("Allocate(%d) failed", tokens)
	}
	return h
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestAllocateFree(t *testing.T) {
	p := NewPool(100, 1)
	h1 := mustAlloc(t, p, 40)
	if p.UsedTokens() != 40 || p.FreeTokens() != 60 {
		t.Fatalf("used=%d free=%d", p.UsedTokens(), p.FreeTokens())
	}
	if got := p.Free(h1); got != 40 {
		t.Fatalf("freed %d", got)
	}
	if p.UsedTokens() != 0 || p.FreeTokens() != 100 {
		t.Fatal("free did not restore pool")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateRejectsWhenFull(t *testing.T) {
	p := NewPool(100, 1)
	mustAlloc(t, p, 100)
	if h, ok := p.Allocate(1); ok || h != (Handle{}) {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if p.UsedTokens() != 100 {
		t.Fatal("failed allocation mutated pool")
	}
}

func TestExtend(t *testing.T) {
	p := NewPool(100, 1)
	h1 := mustAlloc(t, p, 10)
	if !p.Extend(h1, 5) {
		t.Fatal("extend failed")
	}
	if p.AllocatedTokens(h1) != 15 {
		t.Fatalf("allocated = %d", p.AllocatedTokens(h1))
	}
	if p.Free(h1) != 15 {
		t.Fatal("free returned wrong size")
	}
}

func TestExtendRejectsWhenFull(t *testing.T) {
	p := NewPool(10, 1)
	h1 := mustAlloc(t, p, 10)
	if p.Extend(h1, 1) {
		t.Fatal("extend beyond capacity succeeded")
	}
	if p.AllocatedTokens(h1) != 10 {
		t.Fatal("failed extend mutated allocation")
	}
}

func TestBlockFragmentation(t *testing.T) {
	p := NewPool(160, 16)
	mustAlloc(t, p, 17) // needs 2 blocks = 32 physical
	if p.UsedTokens() != 17 {
		t.Fatalf("logical = %d", p.UsedTokens())
	}
	if p.PhysicalUsedTokens() != 32 {
		t.Fatalf("physical = %d", p.PhysicalUsedTokens())
	}
	if p.FragmentationWaste() != 15 {
		t.Fatalf("waste = %d", p.FragmentationWaste())
	}
}

func TestBlockExtendWithinBlock(t *testing.T) {
	p := NewPool(160, 16)
	h1 := mustAlloc(t, p, 10)
	if p.PhysicalUsedTokens() != 16 {
		t.Fatal("one block expected")
	}
	// Extending within the same block consumes no new physical space.
	if !p.Extend(h1, 6) {
		t.Fatal("extend failed")
	}
	if p.PhysicalUsedTokens() != 16 {
		t.Fatalf("physical grew to %d inside a block", p.PhysicalUsedTokens())
	}
	if !p.Extend(h1, 1) {
		t.Fatal("extend crossing block failed")
	}
	if p.PhysicalUsedTokens() != 32 {
		t.Fatalf("physical = %d after crossing block", p.PhysicalUsedTokens())
	}
}

func TestTokenGranularityNoWaste(t *testing.T) {
	p := NewPool(1000, 1)
	mustAlloc(t, p, 123)
	mustAlloc(t, p, 456)
	if p.FragmentationWaste() != 0 {
		t.Fatalf("token-granular pool wasted %d", p.FragmentationWaste())
	}
}

func TestCanAllocate(t *testing.T) {
	p := NewPool(32, 16)
	if !p.CanAllocate(32) {
		t.Fatal("CanAllocate(32) = false")
	}
	mustAlloc(t, p, 20) // 2 blocks
	if p.CanAllocate(1) {
		t.Fatal("no free blocks, CanAllocate should be false")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := NewPool(100, 1)
	h := mustAlloc(t, p, 10)
	p.Free(h)
	mustPanic(t, "double free", func() { p.Free(h) })
}

func TestExtendAfterFreePanics(t *testing.T) {
	p := NewPool(100, 1)
	h := mustAlloc(t, p, 10)
	p.Free(h)
	mustPanic(t, "extend after free", func() { p.Extend(h, 1) })
	mustPanic(t, "extend-need after free", func() { p.BlocksNeededToExtendByOne(h) })
}

func TestZeroHandlePanics(t *testing.T) {
	p := NewPool(100, 1)
	mustPanic(t, "extend of the zero handle", func() { p.Extend(Handle{}, 1) })
	mustPanic(t, "extend-need of the zero handle", func() { p.BlocksNeededToExtendByOne(Handle{}) })
	mustPanic(t, "free of the zero handle", func() { p.Free(Handle{}) })
}

// TestForeignHandlePanics presents a handle to a pool that did not issue
// it, with the same slot live on both sides: the slot number alone must not
// be enough.
func TestForeignHandlePanics(t *testing.T) {
	p, q := NewPool(100, 1), NewPool(100, 1)
	hp, hq := mustAlloc(t, p, 10), mustAlloc(t, q, 20)
	if q.Allocated(hp) || q.AllocatedTokens(hp) != 0 {
		t.Fatal("foreign handle reads as allocated")
	}
	mustPanic(t, "extend through the wrong pool", func() { q.Extend(hp, 1) })
	mustPanic(t, "extend-need through the wrong pool", func() { q.BlocksNeededToExtendByOne(hp) })
	mustPanic(t, "free through the wrong pool", func() { q.Free(hp) })
	if p.AllocatedTokens(hp) != 10 || q.AllocatedTokens(hq) != 20 {
		t.Fatal("rejected foreign handle mutated a pool")
	}
	for _, pool := range []*Pool{p, q} {
		if err := pool.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSlotReuseDoesNotResurrectHandle frees an allocation and allocates
// again: the slab slot is reused, and the old handle must stay dead rather
// than alias the new tenant.
func TestSlotReuseDoesNotResurrectHandle(t *testing.T) {
	p := NewPool(100, 1)
	old := mustAlloc(t, p, 10)
	p.Free(old)
	cur := mustAlloc(t, p, 30)
	if cur.slot != old.slot {
		t.Fatalf("slot %d not reused (got %d)", old.slot, cur.slot)
	}
	if cur == old || p.Allocated(old) || p.AllocatedTokens(old) != 0 {
		t.Fatal("stale handle aliases the slot's new allocation")
	}
	mustPanic(t, "free through the stale handle", func() { p.Free(old) })
	if got := p.AllocatedTokens(cur); got != 30 {
		t.Fatalf("new tenant holds %d tokens, want 30", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesSlabCorruption breaks the slab three ways by
// hand and expects CheckInvariants to name each.
func TestCheckInvariantsCatchesSlabCorruption(t *testing.T) {
	fresh := func() (*Pool, Handle) {
		p := NewPool(100, 1)
		h := mustAlloc(t, p, 10)
		p.Free(mustAlloc(t, p, 5))
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return p, h
	}
	p, h := fresh()
	p.freeSlots = append(p.freeSlots, h.slot) // live slot on the free list
	if p.CheckInvariants() == nil {
		t.Fatal("live slot on the free list not detected")
	}
	p, _ = fresh()
	p.freeSlots = append(p.freeSlots, p.freeSlots[0]) // owned twice
	if p.CheckInvariants() == nil {
		t.Fatal("duplicate free-list entry not detected")
	}
	p, _ = fresh()
	p.freeSlots = p.freeSlots[:0] // freed slot lost: reads as an empty live one
	if p.CheckInvariants() == nil {
		t.Fatal("slot neither live nor free not detected")
	}
}

func TestCapacityRoundsToBlocks(t *testing.T) {
	p := NewPool(100, 16) // 6 blocks = 96 tokens
	if p.CapacityTokens() != 96 {
		t.Fatalf("capacity = %d, want 96", p.CapacityTokens())
	}
}

func TestPeakTracking(t *testing.T) {
	p := NewPool(100, 1)
	h1 := mustAlloc(t, p, 60)
	mustAlloc(t, p, 30)
	p.Free(h1)
	if p.PeakUsedTokens() != 90 {
		t.Fatalf("peak = %d", p.PeakUsedTokens())
	}
}

// TestNotePeakWith: noting owed growth raises the peak to what the growth
// made token by token would reach, and lowers nothing.
func TestNotePeakWith(t *testing.T) {
	p := NewPool(100, 1)
	h := mustAlloc(t, p, 40)
	p.NotePeakWith(25)
	if p.PeakUsedTokens() != 65 || p.UsedTokens() != 40 {
		t.Fatalf("peak %d, used %d; want 65 and 40", p.PeakUsedTokens(), p.UsedTokens())
	}
	p.NotePeakWith(5)
	if p.PeakUsedTokens() != 65 {
		t.Fatalf("a smaller note moved the peak to %d", p.PeakUsedTokens())
	}
	if !p.Extend(h, 30) || p.PeakUsedTokens() != 70 {
		t.Fatalf("peak %d after growing to 70", p.PeakUsedTokens())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUtilization(t *testing.T) {
	p := NewPool(200, 1)
	mustAlloc(t, p, 50)
	if got := p.Utilization(); got != 0.25 {
		t.Fatalf("utilization = %v", got)
	}
}

func TestActiveRequests(t *testing.T) {
	p := NewPool(100, 1)
	h1, h2 := mustAlloc(t, p, 10), mustAlloc(t, p, 10)
	if p.ActiveRequests() != 2 {
		t.Fatalf("active = %d", p.ActiveRequests())
	}
	p.Free(h1)
	if p.ActiveRequests() != 1 || p.Allocated(h1) || !p.Allocated(h2) {
		t.Fatal("active bookkeeping wrong after free")
	}
}

func TestFreeBlocksAndExtendNeed(t *testing.T) {
	p := NewPool(64, 16) // 4 blocks
	if p.FreeBlocks() != 4 {
		t.Fatalf("free blocks = %d", p.FreeBlocks())
	}
	h1 := mustAlloc(t, p, 15)
	if p.FreeBlocks() != 3 {
		t.Fatalf("free blocks after alloc = %d", p.FreeBlocks())
	}
	// 15 → 16 stays within the block; 16 → 17 needs one more.
	if p.BlocksNeededToExtendByOne(h1) != 0 {
		t.Fatal("extend 15→16 should need 0 blocks")
	}
	p.Extend(h1, 1)
	if p.BlocksNeededToExtendByOne(h1) != 1 {
		t.Fatal("extend 16→17 should need 1 block")
	}
}

func TestQuickConservation(t *testing.T) {
	// Property: after any sequence of alloc/extend/free operations, the
	// pool's accounting is self-consistent and freeing everything restores
	// full capacity.
	type op struct {
		Kind   uint8
		ID     uint8
		Tokens uint8
	}
	f := func(ops []op, blockPow uint8) bool {
		blockSize := 1 << (blockPow % 5) // 1..16
		p := NewPool(4096, blockSize)
		live := map[int64]Handle{}
		for _, o := range ops {
			id := int64(o.ID % 8)
			tokens := int(o.Tokens%64) + 1
			h, held := live[id]
			switch o.Kind % 3 {
			case 0:
				if !held {
					if h, ok := p.Allocate(tokens); ok {
						live[id] = h
					}
				}
			case 1:
				if held {
					p.Extend(h, tokens)
				}
			case 2:
				if held {
					p.Free(h)
					delete(live, id)
					if p.Allocated(h) {
						return false
					}
				}
			}
			if err := p.CheckInvariants(); err != nil || p.ActiveRequests() != len(live) {
				return false
			}
		}
		for _, h := range live {
			p.Free(h)
		}
		return p.UsedTokens() == 0 && p.FreeTokens() == p.CapacityTokens() &&
			p.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocateFree(b *testing.B) {
	p := NewPool(1_000_000, 1)
	for i := 0; i < b.N; i++ {
		h, _ := p.Allocate(100)
		p.Free(h)
	}
}

// BenchmarkPoolGrow measures what one decode step asks of the pool for a
// 256-request batch: the engine's extend-need pass (Allocated +
// BlocksNeededToExtendByOne per lane) followed by Extend by one token per
// lane. Handle-addressed, so no hashing and no allocation.
func BenchmarkPoolGrow(b *testing.B) {
	const batch = 256
	p := NewPool(1<<50, 16) // capacity is a counter: the batch never fills it
	hs := make([]Handle, batch)
	for i := range hs {
		hs[i] = mustAlloc(b, p, 100+i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		need := 0
		for _, h := range hs {
			if p.Allocated(h) {
				need += p.BlocksNeededToExtendByOne(h)
			}
		}
		if need > p.AvailableBlocks() {
			b.Fatal("pool full")
		}
		for _, h := range hs {
			if !p.Extend(h, 1) {
				b.Fatal("extend failed")
			}
		}
	}
}
