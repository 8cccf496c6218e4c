// Package kv implements the KV-cache memory pool the serving engine
// allocates request state from.
//
// The pool is block-granular: LightLLM's TokenAttention corresponds to
// BlockSize = 1 (token-exact allocation, zero internal fragmentation);
// vLLM's PagedAttention corresponds to BlockSize = 16 (a request's last
// block is partially used, wasting up to BlockSize-1 slots). Schedulers see
// logical token counts; the pool additionally accounts the physical blocks
// so fragmentation shows up in memory-utilisation metrics and in the
// block-size ablation.
//
// # Handles
//
// An allocation is addressed by the Handle that Allocate / AllocatePrefixed
// returned, not by a request id. The pool keeps its per-allocation records
// by value in one slab; a handle is a slot of that slab plus the slot's
// generation at allocation time, and Free bumps the generation and puts the
// slot on a free list. The engine stores the handle on the request while
// the request holds memory, so the decode loop's extend-need / Extend pair
// is two bounds-checked slab reads — no hash lookup, and no per-request
// heap object. A handle that was freed, never issued, or issued by another
// pool panics in Extend, BlocksNeededToExtendByOne and Free (engine bugs,
// exactly as unknown ids were) and reads as "not allocated" in the
// Allocated / AllocatedTokens queries.
package kv

import "fmt"

// Pool is a KV-cache allocator over a fixed number of token slots.
// It is not safe for concurrent use; the engine owns it single-threaded.
type Pool struct {
	capacityTokens int
	blockSize      int
	totalBlocks    int
	freeBlocks     int

	slab      []alloc  // per-allocation records, addressed by Handle.slot
	freeSlots []uint32 // slab slots without a live allocation, LIFO

	logicalUsed int // sum of allocated logical tokens
	peakLogical int
	peakBlocks  int

	// prefix is the opt-in prefix-cache layer (see prefix.go); nil keeps
	// the allocator bit-identical to the pre-cache behavior.
	prefix *prefixState
}

// Handle names one live allocation of one pool. The zero Handle names
// nothing. Handles are plain values: copy them freely, compare them with ==.
type Handle struct {
	pool *Pool
	slot uint32
	gen  uint32
}

// alloc is one slab slot. A free slot keeps its generation (already bumped
// past every handle issued for it) and the capacity of shared for reuse.
type alloc struct {
	tokens int // logical tokens allocated privately to the request
	blocks int // physical blocks backing the private tokens
	// shared are the resident-slab slots of the pinned prefix-cache blocks
	// the request references (empty outside prefix-caching mode). Shared
	// blocks are accounted once pool-wide, not per request.
	shared []int32
	gen    uint32
}

// NewPool creates a pool with the given capacity in token slots and block
// size. Capacity is rounded down to a whole number of blocks.
func NewPool(capacityTokens, blockSize int) *Pool {
	if capacityTokens <= 0 || blockSize <= 0 {
		panic(fmt.Sprintf("kv: invalid pool capacity=%d blockSize=%d", capacityTokens, blockSize))
	}
	total := capacityTokens / blockSize
	if total == 0 {
		panic("kv: capacity smaller than one block")
	}
	return &Pool{
		capacityTokens: total * blockSize,
		blockSize:      blockSize,
		totalBlocks:    total,
		freeBlocks:     total,
	}
}

// newSlot takes a slot off the free list (growing the slab when it is
// empty) and returns the handle for the allocation about to live there.
// The slot's record is zero apart from its generation and shared's spare
// capacity.
func (p *Pool) newSlot() (Handle, *alloc) {
	var slot uint32
	if n := len(p.freeSlots); n > 0 {
		slot = p.freeSlots[n-1]
		p.freeSlots = p.freeSlots[:n-1]
	} else {
		slot = uint32(len(p.slab))
		p.slab = append(p.slab, alloc{})
	}
	a := &p.slab[slot]
	return Handle{pool: p, slot: slot, gen: a.gen}, a
}

// lookup resolves a handle to its live record, or nil when the handle is
// zero, stale (freed since), or was issued by another pool.
func (p *Pool) lookup(h Handle) *alloc {
	if h.pool != p || int(h.slot) >= len(p.slab) {
		return nil
	}
	if a := &p.slab[h.slot]; a.gen == h.gen {
		return a
	}
	return nil
}

// must is lookup for the mutating paths, where a dead handle is an engine
// bug: op names the operation in the panic.
func (p *Pool) must(h Handle, op string) *alloc {
	a := p.lookup(h)
	if a == nil {
		panic(fmt.Sprintf("kv: %s of unallocated handle (slot %d, generation %d, own pool %v)",
			op, h.slot, h.gen, h.pool == p))
	}
	return a
}

// CapacityTokens returns the usable capacity in token slots.
func (p *Pool) CapacityTokens() int { return p.capacityTokens }

// BlockSize returns the allocation granularity in tokens.
func (p *Pool) BlockSize() int { return p.blockSize }

// UsedTokens returns the logical token slots in use (what schedulers count).
func (p *Pool) UsedTokens() int { return p.logicalUsed }

// PhysicalUsedTokens returns block-granular usage including fragmentation.
func (p *Pool) PhysicalUsedTokens() int {
	return (p.totalBlocks - p.freeBlocks) * p.blockSize
}

// FreeTokens returns the token slots an allocation could claim right now:
// physically free blocks plus, in prefix-caching mode, the reclaimable
// cached blocks the allocator evicts on demand.
func (p *Pool) FreeTokens() int {
	free := p.freeBlocks * p.blockSize
	if p.prefix != nil {
		free += p.prefix.freeCnt * p.prefix.blockTokens
	}
	return free
}

// FragmentationWaste returns the slots lost to partially filled blocks:
// physical usage minus logical usage minus reclaimable cache. Cached
// refs-0 blocks occupy physical memory but are reusable content, not
// fragmentation, and a shared pinned block counts once however many
// requests reference it (the refcounted-accounting rule).
func (p *Pool) FragmentationWaste() int {
	return p.PhysicalUsedTokens() - p.logicalUsed - p.ReclaimableTokens()
}

// PeakUsedTokens returns the high-water mark of logical usage.
func (p *Pool) PeakUsedTokens() int { return p.peakLogical }

// NotePeakWith raises the high-water marks to what they would read were
// extra more tokens allocated now, each in a block of its own: growth a
// caller owes the pool and is about to make only in part (the engine's
// coasted decode steps, at block size 1, before a finishing request frees its
// allocation).
func (p *Pool) NotePeakWith(extra int) {
	if used := p.logicalUsed + extra; used > p.peakLogical {
		p.peakLogical = used
	}
	if used := p.totalBlocks - p.freeBlocks + extra; used > p.peakBlocks {
		p.peakBlocks = used
	}
}

// Allocated reports whether the handle names a live allocation of this pool.
func (p *Pool) Allocated(h Handle) bool { return p.lookup(h) != nil }

// AllocatedTokens returns the logical tokens held by the allocation (0 if
// the handle is not live), shared prefix blocks included.
func (p *Pool) AllocatedTokens(h Handle) int {
	a := p.lookup(h)
	if a == nil {
		return 0
	}
	tokens := a.tokens
	if p.prefix != nil {
		tokens += len(a.shared) * p.prefix.blockTokens
	}
	return tokens
}

// ActiveRequests returns the number of live allocations.
func (p *Pool) ActiveRequests() int { return len(p.slab) - len(p.freeSlots) }

func blocksFor(tokens, blockSize int) int {
	return (tokens + blockSize - 1) / blockSize
}

// CanAllocate reports whether a fresh allocation of the given logical size
// would succeed right now (reclaimable cached blocks count as available).
func (p *Pool) CanAllocate(tokens int) bool {
	return blocksFor(tokens, p.blockSize) <= p.availableBlocks()
}

// availableBlocks is the free-block budget an allocation can draw on: the
// free list plus, in prefix-caching mode, the reclaimable cached blocks.
func (p *Pool) availableBlocks() int {
	avail := p.freeBlocks
	if p.prefix != nil {
		avail += p.prefix.freeCnt * p.prefix.physPerBlock
	}
	return avail
}

// Allocate reserves tokens slots and returns the handle that addresses
// them. It returns ok=false (and changes nothing) if the pool lacks
// physical space — in prefix-caching mode it first reclaims cached blocks
// LRU-first. The caller owns the handle until it passes it to Free.
func (p *Pool) Allocate(tokens int) (h Handle, ok bool) {
	if tokens <= 0 {
		panic(fmt.Sprintf("kv: allocate %d tokens", tokens))
	}
	need := blocksFor(tokens, p.blockSize)
	if need > p.freeBlocks {
		if need > p.availableBlocks() {
			return Handle{}, false
		}
		p.reclaimFor(need)
	}
	p.freeBlocks -= need
	h, a := p.newSlot()
	a.tokens, a.blocks = tokens, need
	p.logicalUsed += tokens
	p.notePeaks()
	return h, true
}

// FreeBlocks returns the number of free physical blocks.
func (p *Pool) FreeBlocks() int { return p.freeBlocks }

// AvailableBlocks returns the block budget an allocation or extension can
// draw on right now: physically free blocks plus, in prefix-caching mode,
// the reclaimable cached blocks (evicted on demand, LRU-first).
func (p *Pool) AvailableBlocks() int { return p.availableBlocks() }

// BlocksNeededToExtendByOne returns how many new blocks (0 or 1) extending
// the allocation by one token would consume. Dead handles panic.
func (p *Pool) BlocksNeededToExtendByOne(h Handle) int {
	a := p.must(h, "extend-need")
	return blocksFor(a.tokens+1, p.blockSize) - a.blocks
}

// Extend grows an existing allocation by extra tokens, returning false if
// physical space is exhausted — in prefix-caching mode it first reclaims
// cached blocks LRU-first, so decode never stalls behind cold cache.
// Extending a dead handle panics. Growth is private: generated tokens are
// never published into the prefix cache (a follow-up turn republishes them
// as prompt blocks).
func (p *Pool) Extend(h Handle, extra int) bool {
	if extra <= 0 {
		panic(fmt.Sprintf("kv: extend by %d tokens", extra))
	}
	a := p.must(h, "extend")
	need := blocksFor(a.tokens+extra, p.blockSize) - a.blocks
	if need > p.freeBlocks {
		if need > p.availableBlocks() {
			return false
		}
		p.reclaimFor(need)
	}
	p.freeBlocks -= need
	a.blocks += need
	a.tokens += extra
	p.logicalUsed += extra
	p.notePeaks()
	return true
}

// Free releases the allocation and returns the logical tokens it held
// (shared prefix blocks included). Private blocks return to the free list;
// shared blocks are unpinned and, once unreferenced, stay resident as
// reclaimable cache. The handle — and every copy of it — is dead from here
// on: the slot's generation moves, so a later allocation reusing the slot
// cannot be reached through it. Freeing a dead handle panics: a double free
// is an engine bug.
func (p *Pool) Free(h Handle) int {
	a := p.must(h, "free")
	p.freeBlocks += a.blocks
	p.logicalUsed -= a.tokens
	tokens := a.tokens
	if p.prefix != nil {
		tokens += p.releaseShared(a)
	}
	a.tokens, a.blocks = 0, 0
	a.gen++
	p.freeSlots = append(p.freeSlots, h.slot)
	return tokens
}

// Utilization returns logical usage as a fraction of capacity.
func (p *Pool) Utilization() float64 {
	return float64(p.logicalUsed) / float64(p.capacityTokens)
}

// CheckInvariants verifies internal accounting; tests call it after
// operation sequences. It returns an error rather than panicking so
// property tests can report the failing sequence.
func (p *Pool) CheckInvariants() error {
	// Slab: every slot is either on the free list exactly once (and then
	// holds nothing) or live; there is no third state.
	free := make([]bool, len(p.slab))
	for _, slot := range p.freeSlots {
		if int(slot) >= len(p.slab) {
			return fmt.Errorf("kv: free list names slot %d beyond the slab (%d)", slot, len(p.slab))
		}
		if free[slot] {
			return fmt.Errorf("kv: slot %d on the free list twice", slot)
		}
		free[slot] = true
		if a := &p.slab[slot]; a.tokens != 0 || a.blocks != 0 || len(a.shared) != 0 {
			return fmt.Errorf("kv: free slot %d still holds tokens=%d blocks=%d shared=%d",
				slot, a.tokens, a.blocks, len(a.shared))
		}
	}
	usedBlocks := 0
	logical := 0
	var pins []int32 // per resident-slab slot, the live allocations pinning it
	if p.prefix != nil {
		pins = make([]int32, len(p.prefix.blocks))
	}
	for id := range p.slab {
		if free[id] {
			continue
		}
		a := &p.slab[id]
		if a.tokens < 0 || a.blocks < 0 || (a.tokens == 0 && len(a.shared) == 0) {
			return fmt.Errorf("kv: live slot %d has empty allocation", id)
		}
		if a.blocks != blocksFor(a.tokens, p.blockSize) {
			return fmt.Errorf("kv: slot %d blocks=%d tokens=%d inconsistent", id, a.blocks, a.tokens)
		}
		if p.prefix == nil && len(a.shared) != 0 {
			return fmt.Errorf("kv: slot %d holds shared blocks without prefix cache", id)
		}
		for _, s := range a.shared {
			if s < 0 || int(s) >= len(pins) {
				return fmt.Errorf("kv: slot %d pins resident slot %d outside the slab", id, s)
			}
			pins[s]++
		}
		usedBlocks += a.blocks
		logical += a.tokens
	}
	if px := p.prefix; px != nil {
		pinned, err := px.check(pins)
		if err != nil {
			return err
		}
		logical += pinned * px.blockTokens // referenced shared blocks count once
		usedBlocks += px.resident * px.physPerBlock
	}
	if usedBlocks+p.freeBlocks != p.totalBlocks {
		return fmt.Errorf("kv: blocks leak: used=%d free=%d total=%d", usedBlocks, p.freeBlocks, p.totalBlocks)
	}
	if logical != p.logicalUsed {
		return fmt.Errorf("kv: logical usage drift: %d vs %d", logical, p.logicalUsed)
	}
	return nil
}

func (p *Pool) notePeaks() {
	if p.logicalUsed > p.peakLogical {
		p.peakLogical = p.logicalUsed
	}
	if used := p.totalBlocks - p.freeBlocks; used > p.peakBlocks {
		p.peakBlocks = used
	}
}
