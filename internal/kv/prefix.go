package kv

import (
	"fmt"
	"math/bits"
)

// Prefix caching: block-identity by token-prefix hash with reference
// counting, the KV reuse hierarchy behind prefix-cache-aware routing.
//
// A prefix block covers BlockTokens consecutive prompt tokens and is
// identified by a chain hash of the prompt up to its end, so two requests
// whose prompts agree on a block's span produce the same hash and share one
// physical copy. Blocks enter the cache at admission, created by the
// AllocatePrefixed call that first names them. A block is pinned (refs > 0)
// while any resident request references it; an unpinned block stays
// resident as reusable cache and is reclaimed LRU-first when the allocator
// runs out of free blocks. A
// reclaimed block optionally spills its identity to a host offload store, so
// a later request can restore it over the host link instead of recomputing
// it — the restore-vs-recompute choice is priced by the engine, not here.
//
// The cache is strictly opt-in: a pool without EnablePrefixCache behaves
// bit-identically to the pre-cache allocator, and even an enabled pool
// serving requests without prefix hashes only differs once cached blocks
// exist to reclaim.
//
// Layout: one open-addressed hash table indexes both stores by chain hash,
// and its values name slots of two pointer-free slabs — resident blocks and
// spilled identities — whose LRU lists link by slab index. Freed slots are
// reused, so a cache allocates only while it grows toward bounds the pool
// already knows, and never once full.
//
// Modeling choices, deliberately simple:
//   - Identity is the hash alone; collisions are assumed impossible (the
//     workload generator chains splitmix64 over per-session salts). A chain
//     that names one hash twice is a caller bug and panics.
//   - A resident block is reusable wherever it appears in a request's hash
//     list: its KV content is position-complete by construction, so an
//     eviction hole in the middle of a chain only costs recompute for the
//     hole, not for everything after it. A match therefore counts every
//     resident block of the chain, not the longest resident prefix.
//   - Generated tokens are never published; a follow-up turn republishes
//     them as prompt blocks at its own prefill (matching real engines,
//     where decode tokens enter the prefix cache on the next turn's match).
type PrefixConfig struct {
	// BlockTokens is the prefix granularity in tokens: hashes identify
	// spans of exactly this many prompt tokens. Must be a positive multiple
	// of the pool's BlockSize.
	BlockTokens int
	// OffloadCapacityTokens bounds the host offload store evicted blocks
	// spill into. 0 disables the offload tier (evictions are lost);
	// negative means unbounded.
	OffloadCapacityTokens int
}

// PrefixStats reports prefix-cache accounting; gauges are instantaneous,
// token/block counters are cumulative.
type PrefixStats struct {
	ResidentBlocks    int   // blocks holding cached prefixes (pinned + reclaimable)
	ReclaimableBlocks int   // resident blocks with refs == 0 (reusable memory)
	OffloadBlocks     int   // block identities in the host offload store
	HitTokens         int64 // tokens served from resident blocks at allocation
	RestoredTokens    int64 // tokens restored from the offload store
	EvictedBlocks     int64 // resident blocks reclaimed for memory
	SpilledBlocks     int64 // evictions that entered the offload store
	DroppedBlocks     int64 // resident blocks lost to DropPrefixCache (crash)
}

// PrefixHash chains one step of the prefix block identity: the hash of a
// block is a splitmix64-style mix of the previous block's hash and a value
// characterizing the block's token span (the workload generator feeds a
// per-session salt or block index). Chaining makes a block's identity
// depend on the whole prompt before it, matching how real engines hash
// token-aligned prefix blocks.
func PrefixHash(prev, v uint64) uint64 {
	z := prev ^ (v + 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// noSlot ends a slab-index list.
const noSlot = -1

// prefixBlock is one resident cached block, a slot of the resident slab.
// While refs == 0 it sits on the reclaim list (oldest first); a freed slot
// links the slab's free list through next.
type prefixBlock struct {
	hash       uint64
	refs       int32
	prev, next int32
	// claimed marks a block the AllocatePrefixed call in progress already
	// pinned as a hit, so the chain cannot name it twice.
	claimed bool
}

// offBlock is one spilled block identity, a slot of the offload slab, on
// the store's LRU list (oldest first); a freed slot links the slab's free
// list through next.
type offBlock struct {
	hash       uint64
	prev, next int32
}

// tableEntry maps a chain hash to its slot: resident slot ref-1 when ref is
// positive, offload slot -ref-1 when negative. ref == 0 marks an empty entry.
type tableEntry struct {
	hash uint64
	ref  int32
}

type prefixState struct {
	blockTokens  int // tokens per prefix block
	physPerBlock int // physical allocator blocks per prefix block

	// table indexes both stores (a hash is never resident and offloaded at
	// once): linear probing from a Fibonacci-hashed home, deletion by
	// backward shift, at most half full. Nil until the first block exists.
	table   []tableEntry
	shift   uint // 64 − log2(len(table))
	entries int

	blocks    []prefixBlock // resident slab
	blockFree int32         // head of its free list
	resident  int           // live resident blocks
	maxBlocks int           // resident blocks the pool can hold: its blocks ÷ physPerBlock
	lruHead   int32         // oldest reclaimable
	lruTail   int32         // newest reclaimable
	freeCnt   int           // len of the reclaim list

	offCapBlocks int        // -1 unbounded, 0 disabled
	off          []offBlock // offload slab
	offFree      int32      // head of its free list
	offloaded    int        // live offload entries
	offHead      int32
	offTail      int32

	stats PrefixStats
}

// EnablePrefixCache switches the pool into prefix-caching mode. It must be
// called before any allocation exists and panics on invalid configuration.
func (p *Pool) EnablePrefixCache(cfg PrefixConfig) {
	if p.prefix != nil {
		panic("kv: prefix cache already enabled")
	}
	if p.ActiveRequests() != 0 {
		panic("kv: prefix cache must be enabled before allocations")
	}
	if cfg.BlockTokens <= 0 || cfg.BlockTokens%p.blockSize != 0 {
		panic(fmt.Sprintf("kv: prefix BlockTokens %d must be a positive multiple of pool block size %d",
			cfg.BlockTokens, p.blockSize))
	}
	offCap := 0
	switch {
	case cfg.OffloadCapacityTokens < 0:
		offCap = -1
	case cfg.OffloadCapacityTokens > 0:
		offCap = cfg.OffloadCapacityTokens / cfg.BlockTokens
		if offCap == 0 {
			offCap = 1
		}
	}
	phys := cfg.BlockTokens / p.blockSize
	p.prefix = &prefixState{
		blockTokens:  cfg.BlockTokens,
		physPerBlock: phys,
		maxBlocks:    p.totalBlocks / phys,
		blockFree:    noSlot,
		lruHead:      noSlot,
		lruTail:      noSlot,
		offCapBlocks: offCap,
		offFree:      noSlot,
		offHead:      noSlot,
		offTail:      noSlot,
	}
}

// PrefixCacheEnabled reports whether the pool caches prefixes.
func (p *Pool) PrefixCacheEnabled() bool { return p.prefix != nil }

// PrefixBlockTokens returns the prefix granularity (0 when disabled).
func (p *Pool) PrefixBlockTokens() int {
	if p.prefix == nil {
		return 0
	}
	return p.prefix.blockTokens
}

// PrefixStats returns the cache accounting (zero value when disabled).
func (p *Pool) PrefixStats() PrefixStats {
	if p.prefix == nil {
		return PrefixStats{}
	}
	s := p.prefix.stats
	s.ResidentBlocks = p.prefix.resident
	s.ReclaimableBlocks = p.prefix.freeCnt
	s.OffloadBlocks = p.prefix.offloaded
	return s
}

// ReclaimableTokens returns the token slots held by resident refs-0 cached
// blocks — memory the allocator can reclaim on demand, which FreeTokens
// therefore counts as free.
func (p *Pool) ReclaimableTokens() int {
	if p.prefix == nil {
		return 0
	}
	return p.prefix.freeCnt * p.prefix.blockTokens
}

// MatchPrefix returns how many of the request's prompt tokens are covered
// by resident cached blocks right now — the routing probe's expected-hit
// signal and the admission floor's discount. Read-only and allocation-free.
func (p *Pool) MatchPrefix(hashes []uint64) int {
	px := p.prefix
	if px == nil || px.resident == 0 {
		return 0
	}
	hit := 0
	for _, h := range hashes {
		if px.ref(h) > 0 {
			hit++
		}
	}
	return hit * px.blockTokens
}

// MatchPrefixDetail additionally counts the blocks restorable from the
// offload store (identities spilled by past evictions, not resident now).
func (p *Pool) MatchPrefixDetail(hashes []uint64) (hitBlocks, offloadBlocks int) {
	px := p.prefix
	if px == nil {
		return 0, 0
	}
	for _, h := range hashes {
		switch ref := px.ref(h); {
		case ref > 0:
			hitBlocks++
		case ref < 0:
			offloadBlocks++
		}
	}
	return hitBlocks, offloadBlocks
}

// AllocatePrefixed reserves tokens slots, sharing every resident block
// named in hashes, restoring up to restoreBlocks offloaded blocks, and
// creating fresh shared blocks for the rest of the hash chain; the
// uncovered tail (tokens - len(hashes)*BlockTokens) is allocated privately.
// Beside the handle it returns the tokens served by resident hits and by
// offload restores — both are prefill the engine does not recompute, but
// restores pay wire time. Returns ok=false (nothing changed) if the demand
// exceeds free plus reclaimable memory. A chain that names one hash twice
// panics.
func (p *Pool) AllocatePrefixed(tokens int, hashes []uint64, restoreBlocks int) (h Handle, hitTokens, restoredTokens int, ok bool) {
	px := p.prefix
	if px == nil {
		panic("kv: AllocatePrefixed without prefix cache enabled")
	}
	if tokens <= 0 {
		panic(fmt.Sprintf("kv: allocate %d tokens", tokens))
	}
	covered := len(hashes) * px.blockTokens
	if covered > tokens {
		panic(fmt.Sprintf("kv: prefix hashes cover %d tokens but footprint is %d", covered, tokens))
	}

	// Feasibility walk, read-only: count hits (and how many of them are
	// currently reclaimable, since pinning them shrinks the reclaim pool),
	// restorable blocks, and blocks to create.
	hits, unpinnedHits, restores, creates := 0, 0, 0, 0
	for _, h := range hashes {
		switch ref := px.ref(h); {
		case ref > 0:
			hits++
			if px.blocks[ref-1].refs == 0 {
				unpinnedHits++
			}
		case ref < 0 && restores < restoreBlocks:
			restores++
		default:
			creates++
		}
	}
	private := tokens - covered
	needPhys := (restores+creates)*px.physPerBlock + blocksFor(private, p.blockSize)
	if needPhys > p.freeBlocks+(px.freeCnt-unpinnedHits)*px.physPerBlock {
		return Handle{}, 0, 0, false
	}

	// Commit in two passes: pin every resident hit first, so the reclaim
	// loop driven by later restores/creates can never evict a block this
	// same request is about to share (pinning removes it from the reclaim
	// list).
	h, a := p.newSlot()
	a.tokens, a.blocks = private, blocksFor(private, p.blockSize)
	if n := len(hashes); cap(a.shared) < n {
		a.shared = make([]int32, 0, max(n, 2*cap(a.shared)))
	}
	for _, h := range hashes {
		ref := px.ref(h)
		if ref <= 0 {
			continue
		}
		s := ref - 1
		b := &px.blocks[s]
		if b.claimed {
			panic(fmt.Sprintf("kv: prefix chain names block %x twice", h))
		}
		b.claimed = true
		if b.refs == 0 {
			px.lruRemove(s)
			p.logicalUsed += px.blockTokens
		}
		b.refs++
		a.shared = append(a.shared, s)
		hitTokens += px.blockTokens
	}
	restores = 0
	for _, h := range hashes {
		i := px.find(h)
		if i >= 0 && px.table[i].ref > 0 {
			if !px.blocks[px.table[i].ref-1].claimed { // created earlier in this pass
				panic(fmt.Sprintf("kv: prefix chain names block %x twice", h))
			}
			continue // pinned in the first pass
		}
		offloaded := i >= 0
		restore := offloaded && restores < restoreBlocks
		if offloaded && !restore {
			// Recomputing a block whose identity is still offloaded (the
			// restore budget ran out, or restoring was priced worse than
			// recompute): the resident copy supersedes the spilled one.
			px.dropOffloaded(i)
		}
		p.reclaimFor(px.physPerBlock)
		if restore {
			// The reclaim's own spill may have pushed this identity out of a
			// full store as its oldest entry; it is restored all the same.
			if i = px.find(h); i >= 0 {
				px.dropOffloaded(i)
			}
			restoredTokens += px.blockTokens
			restores++
		}
		s := px.newBlock(h)
		px.insert(h, s+1)
		p.freeBlocks -= px.physPerBlock
		p.logicalUsed += px.blockTokens
		a.shared = append(a.shared, s)
	}
	for _, s := range a.shared[:hits] {
		px.blocks[s].claimed = false
	}
	if a.blocks > 0 {
		p.reclaimFor(a.blocks)
		p.freeBlocks -= a.blocks
	}
	p.logicalUsed += private
	px.stats.HitTokens += int64(hitTokens)
	px.stats.RestoredTokens += int64(restoredTokens)
	p.notePeaks()
	return h, hitTokens, restoredTokens, true
}

// DropPrefixCache discards every resident cached block — the crash path: a
// replica restart loses GPU memory, so its warm prefixes are gone. The host
// offload store survives (it lives off-device). All blocks must be unpinned
// (the engine evacuates requests first); pinned blocks panic. Returns the
// number of blocks dropped.
func (p *Pool) DropPrefixCache() int {
	px := p.prefix
	if px == nil {
		return 0
	}
	dropped := 0
	for px.lruHead != noSlot {
		s := px.lruHead
		px.lruRemove(s)
		px.remove(px.find(px.blocks[s].hash))
		px.freeBlock(s)
		p.freeBlocks += px.physPerBlock
		dropped++
	}
	if px.resident != 0 {
		panic(fmt.Sprintf("kv: DropPrefixCache with %d pinned blocks", px.resident))
	}
	px.stats.DroppedBlocks += int64(dropped)
	return dropped
}

// reclaimFor evicts reclaimable cached blocks, oldest first, until need
// free physical blocks are available. Callers pre-check feasibility; running
// dry here is an accounting bug.
func (p *Pool) reclaimFor(need int) {
	px := p.prefix
	for p.freeBlocks < need {
		s := px.lruHead
		if s == noSlot {
			panic(fmt.Sprintf("kv: reclaim of %d blocks ran dry (free=%d)", need, p.freeBlocks))
		}
		px.lruRemove(s)
		hash := px.blocks[s].hash
		px.freeBlock(s)
		p.freeBlocks += px.physPerBlock
		px.stats.EvictedBlocks++
		if px.offCapBlocks == 0 {
			px.remove(px.find(hash))
			continue
		}
		px.spill(hash)
		px.stats.SpilledBlocks++
	}
}

// spill moves an evicted block's identity into the offload store, first
// dropping the store's oldest identities when it is capacity-bounded and
// full. The identity's table entry turns from resident to offloaded in
// place.
func (px *prefixState) spill(hash uint64) {
	for px.offCapBlocks > 0 && px.offloaded >= px.offCapBlocks {
		px.dropOffloaded(px.find(px.off[px.offHead].hash))
	}
	s := px.offFree
	if s != noSlot {
		px.offFree = px.off[s].next
	} else {
		px.off = growSlab(px.off, px.offCapBlocks)
		s = int32(len(px.off) - 1)
	}
	px.off[s] = offBlock{hash: hash, prev: px.offTail, next: noSlot}
	if px.offTail != noSlot {
		px.off[px.offTail].next = s
	} else {
		px.offHead = s
	}
	px.offTail = s
	px.offloaded++
	px.table[px.find(hash)].ref = -(s + 1)
}

// dropOffloaded takes the offloaded identity at table position i out of the
// store: off its LRU list, its slot freed, its entry deleted.
func (px *prefixState) dropOffloaded(i int) {
	s := -px.table[i].ref - 1
	ob := &px.off[s]
	if ob.prev != noSlot {
		px.off[ob.prev].next = ob.next
	} else {
		px.offHead = ob.next
	}
	if ob.next != noSlot {
		px.off[ob.next].prev = ob.prev
	} else {
		px.offTail = ob.prev
	}
	ob.next = px.offFree
	px.offFree = s
	px.offloaded--
	px.remove(i)
}

// newBlock takes a resident slot for hash, pinned once: off the free list,
// else grown onto the slab.
func (px *prefixState) newBlock(hash uint64) int32 {
	s := px.blockFree
	if s != noSlot {
		px.blockFree = px.blocks[s].next
	} else {
		px.blocks = growSlab(px.blocks, px.maxBlocks)
		s = int32(len(px.blocks) - 1)
	}
	px.blocks[s] = prefixBlock{hash: hash, refs: 1, prev: noSlot, next: noSlot}
	px.resident++
	return s
}

// freeBlock returns an unlisted resident slot to the free list.
func (px *prefixState) freeBlock(s int32) {
	px.blocks[s].next = px.blockFree
	px.blockFree = s
	px.resident--
}

// growSlab extends s by one slot, doubling its capacity (8 at first) but
// never past bound when bound is positive.
func growSlab[T any](s []T, bound int) []T {
	if len(s) == cap(s) {
		c := max(2*cap(s), 8)
		if bound > 0 {
			c = min(c, bound)
		}
		s = append(make([]T, 0, c), s...)
	}
	return s[:len(s)+1]
}

// releaseShared unpins an allocation's shared blocks at Free time: a block
// whose last pin drops becomes reclaimable cache (newest end of the LRU)
// and leaves the logical count. The slot keeps shared's capacity for its
// next allocation. Returns the logical tokens unpinned.
func (p *Pool) releaseShared(a *alloc) int {
	px := p.prefix
	for _, s := range a.shared {
		b := &px.blocks[s]
		b.refs--
		if b.refs == 0 {
			px.lruAppend(s)
			p.logicalUsed -= px.blockTokens
		} else if b.refs < 0 {
			panic("kv: prefix block refcount underflow")
		}
	}
	released := len(a.shared) * px.blockTokens
	a.shared = a.shared[:0]
	return released
}

// Reclaim list helpers. Oldest at head, newest at tail.

func (px *prefixState) lruAppend(s int32) {
	b := &px.blocks[s]
	b.prev, b.next = px.lruTail, noSlot
	if px.lruTail != noSlot {
		px.blocks[px.lruTail].next = s
	} else {
		px.lruHead = s
	}
	px.lruTail = s
	px.freeCnt++
}

func (px *prefixState) lruRemove(s int32) {
	b := &px.blocks[s]
	if b.prev != noSlot {
		px.blocks[b.prev].next = b.next
	} else {
		px.lruHead = b.next
	}
	if b.next != noSlot {
		px.blocks[b.next].prev = b.prev
	} else {
		px.lruTail = b.prev
	}
	b.prev, b.next = noSlot, noSlot
	px.freeCnt--
}

// The hash table.

// home is hash's first probe position. The hash is already a splitmix64
// output, so a Fibonacci multiply's top bits are enough to spread it.
func (px *prefixState) home(hash uint64) int {
	return int(hash * 0x9e3779b97f4a7c15 >> px.shift)
}

// find returns the table position holding hash, or -1.
func (px *prefixState) find(hash uint64) int {
	if px.entries == 0 {
		return -1
	}
	mask := len(px.table) - 1
	for i := px.home(hash); ; i = (i + 1) & mask {
		if e := &px.table[i]; e.ref == 0 {
			return -1
		} else if e.hash == hash {
			return i
		}
	}
}

// ref returns hash's table value: positive when resident, negative when
// offloaded, 0 when the cache does not know it. It is find for the
// read-only paths, returning the value itself.
func (px *prefixState) ref(hash uint64) int32 {
	if px.entries == 0 {
		return 0
	}
	mask := len(px.table) - 1
	for i := px.home(hash); ; i = (i + 1) & mask {
		if e := &px.table[i]; e.ref == 0 || e.hash == hash {
			return e.ref
		}
	}
}

// insert adds an entry for a hash the table does not hold, doubling the
// table first if the entry would fill it past half.
func (px *prefixState) insert(hash uint64, ref int32) {
	if 2*(px.entries+1) > len(px.table) {
		old := px.table
		n := max(2*len(old), 16)
		px.table = make([]tableEntry, n)
		px.shift = uint(64 - bits.TrailingZeros(uint(n)))
		for _, e := range old {
			if e.ref != 0 {
				px.place(e)
			}
		}
	}
	px.place(tableEntry{hash: hash, ref: ref})
	px.entries++
}

// place stores e at the first empty position of its probe run.
func (px *prefixState) place(e tableEntry) {
	mask := len(px.table) - 1
	i := px.home(e.hash)
	for px.table[i].ref != 0 {
		i = (i + 1) & mask
	}
	px.table[i] = e
}

// remove deletes the entry at position i by backward shift: each later
// entry of the probe run moves into the hole unless that would put it
// before its home, so no tombstone is left and every run stays unbroken.
func (px *prefixState) remove(i int) {
	mask := len(px.table) - 1
	for j := (i + 1) & mask; px.table[j].ref != 0; j = (j + 1) & mask {
		if (j-px.home(px.table[j].hash))&mask >= (j-i)&mask {
			px.table[i] = px.table[j]
			i = j
		}
	}
	px.table[i] = tableEntry{}
	px.entries--
}

// check verifies the cache's structure for CheckInvariants. pins counts, per
// resident slot, the live allocations that hold it. Every table entry must
// be reachable from its home and name a live slot holding its hash, with no
// hash twice; every live slot must be named; each block's refs must equal
// its pins; both LRU lists must be well linked and hold exactly the
// reclaimable blocks and every offloaded identity; both slabs must sit
// within their bounds. It returns the number of pinned blocks.
func (px *prefixState) check(pins []int32) (pinned int, err error) {
	resFree, nFree, err := freeSlots(len(px.blocks), px.blockFree, func(s int32) int32 { return px.blocks[s].next })
	if err != nil {
		return 0, err
	}
	if live := len(px.blocks) - nFree; live != px.resident {
		return 0, fmt.Errorf("kv: %d live resident slots vs %d counted", live, px.resident)
	}
	offFree, nFree, err := freeSlots(len(px.off), px.offFree, func(s int32) int32 { return px.off[s].next })
	if err != nil {
		return 0, err
	}
	if live := len(px.off) - nFree; live != px.offloaded {
		return 0, fmt.Errorf("kv: %d live offload slots vs %d counted", live, px.offloaded)
	}
	if cap(px.blocks) > px.maxBlocks || (px.offCapBlocks > 0 && cap(px.off) > px.offCapBlocks) {
		return 0, fmt.Errorf("kv: slabs grew past their bounds: %d of %d resident, %d of %d offload",
			cap(px.blocks), px.maxBlocks, cap(px.off), px.offCapBlocks)
	}
	if (px.offCapBlocks == 0 && px.offloaded != 0) || (px.offCapBlocks > 0 && px.offloaded > px.offCapBlocks) {
		return 0, fmt.Errorf("kv: %d offloaded identities past capacity %d", px.offloaded, px.offCapBlocks)
	}

	res, off := 0, 0
	for i, e := range px.table {
		switch {
		case e.ref == 0:
			continue
		case px.find(e.hash) != i:
			return 0, fmt.Errorf("kv: table entry %x at %d unreachable from its home or held twice", e.hash, i)
		case e.ref > 0:
			s := int(e.ref - 1)
			if s >= len(px.blocks) || resFree[s] || px.blocks[s].hash != e.hash {
				return 0, fmt.Errorf("kv: table entry %x names resident slot %d, dead or holding another hash", e.hash, s)
			}
			res++
		default:
			s := int(-e.ref - 1)
			if s >= len(px.off) || offFree[s] || px.off[s].hash != e.hash {
				return 0, fmt.Errorf("kv: table entry %x names offload slot %d, dead or holding another hash", e.hash, s)
			}
			off++
		}
	}
	if res != px.resident || off != px.offloaded || res+off != px.entries || 2*px.entries > len(px.table) {
		return 0, fmt.Errorf("kv: table holds %d resident + %d offloaded of %d entries in %d positions; slabs %d + %d",
			res, off, px.entries, len(px.table), px.resident, px.offloaded)
	}

	reclaimable := 0
	for s := range px.blocks {
		b := &px.blocks[s]
		switch {
		case resFree[s]:
			if pins[s] != 0 {
				return 0, fmt.Errorf("kv: %d allocations pin free resident slot %d", pins[s], s)
			}
			continue
		case b.refs != pins[s]:
			return 0, fmt.Errorf("kv: block %x has refs=%d but %d pins", b.hash, b.refs, pins[s])
		case b.claimed:
			return 0, fmt.Errorf("kv: block %x still claimed between allocations", b.hash)
		case b.refs == 0:
			reclaimable++
		default:
			pinned++
		}
	}
	if reclaimable != px.freeCnt {
		return 0, fmt.Errorf("kv: reclaim count drift: %d listed vs %d counted", px.freeCnt, reclaimable)
	}
	walked, prev := 0, int32(noSlot)
	for s := px.lruHead; s != noSlot; s = px.blocks[s].next {
		if walked == px.freeCnt || resFree[s] || px.blocks[s].refs != 0 || px.blocks[s].prev != prev {
			return 0, fmt.Errorf("kv: reclaim list broken at slot %d", s)
		}
		prev = s
		walked++
	}
	if walked != px.freeCnt || px.lruTail != prev {
		return 0, fmt.Errorf("kv: reclaim list length %d vs freeCnt %d", walked, px.freeCnt)
	}
	walked, prev = 0, noSlot
	for s := px.offHead; s != noSlot; s = px.off[s].next {
		if walked == px.offloaded || offFree[s] || px.off[s].prev != prev {
			return 0, fmt.Errorf("kv: offload list broken at slot %d", s)
		}
		prev = s
		walked++
	}
	if walked != px.offloaded || px.offTail != prev {
		return 0, fmt.Errorf("kv: offload list length %d vs %d offloaded", walked, px.offloaded)
	}
	return pinned, nil
}

// freeSlots walks the free list of a slab of n slots from head, marking
// and counting the slots on it; a slot outside the slab or listed twice
// fails.
func freeSlots(n int, head int32, next func(int32) int32) (free []bool, count int, err error) {
	free = make([]bool, n)
	for s := head; s != noSlot; s = next(s) {
		if s < 0 || int(s) >= n || free[s] {
			return nil, 0, fmt.Errorf("kv: free list broken at slot %d of %d", s, n)
		}
		free[s] = true
		count++
	}
	return free, count, nil
}
