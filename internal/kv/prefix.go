package kv

import "fmt"

// Prefix caching: block-identity by token-prefix hash with reference
// counting, the KV reuse hierarchy behind prefix-cache-aware routing.
//
// A prefix block covers BlockTokens consecutive prompt tokens and is
// identified by a chain hash of the prompt up to its end, so two requests
// whose prompts agree on a block's span produce the same hash and share one
// physical copy. Blocks are pinned (refs > 0) while any resident request
// references them; an unpinned block stays resident as reusable cache and
// is reclaimed LRU-first when the allocator runs out of free blocks. A
// reclaimed block optionally spills its identity to a host offload store, so
// a later request can restore it over the host link instead of recomputing
// it — the restore-vs-recompute choice is priced by the engine, not here.
//
// The cache is strictly opt-in: a pool without EnablePrefixCache behaves
// bit-identically to the pre-cache allocator, and even an enabled pool
// serving requests without prefix hashes only differs once cached blocks
// exist to reclaim.
//
// Modeling choices, deliberately simple:
//   - Identity is the hash alone; collisions are assumed impossible (the
//     workload generator chains splitmix64 over per-session salts).
//   - A resident block is reusable wherever it appears in a request's hash
//     list: its KV content is position-complete by construction, so an
//     eviction hole in the middle of a chain only costs recompute for the
//     hole, not for everything after it.
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

// prefixBlock is one resident cached block. While refs == 0 it sits on the
// reclaim list (intrusive LRU, oldest first).
type prefixBlock struct {
	hash       uint64
	refs       int
	prev, next *prefixBlock
	inLRU      bool
}

// offBlock is one spilled block identity in the host offload store
// (intrusive LRU, oldest first, for capacity-bounded stores).
type offBlock struct {
	hash       uint64
	prev, next *offBlock
}

type prefixState struct {
	blockTokens  int // tokens per prefix block
	physPerBlock int // physical allocator blocks per prefix block

	resident map[uint64]*prefixBlock
	lruHead  *prefixBlock // oldest reclaimable
	lruTail  *prefixBlock // newest reclaimable
	freeCnt  int          // len of the reclaim list

	offCapBlocks int // -1 unbounded, 0 disabled
	offload      map[uint64]*offBlock
	offHead      *offBlock
	offTail      *offBlock

	stats PrefixStats

	// Freelists keep steady-state churn allocation-free.
	blockFree []*prefixBlock
	offFree   []*offBlock
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
	p.prefix = &prefixState{
		blockTokens:  cfg.BlockTokens,
		physPerBlock: cfg.BlockTokens / p.blockSize,
		resident:     make(map[uint64]*prefixBlock),
		offCapBlocks: offCap,
		offload:      make(map[uint64]*offBlock),
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
	s.ResidentBlocks = len(p.prefix.resident)
	s.ReclaimableBlocks = p.prefix.freeCnt
	s.OffloadBlocks = len(p.prefix.offload)
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
	if px == nil || len(hashes) == 0 {
		return 0
	}
	hit := 0
	for _, h := range hashes {
		if _, ok := px.resident[h]; ok {
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
		if _, ok := px.resident[h]; ok {
			hitBlocks++
		} else if _, ok := px.offload[h]; ok {
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
// exceeds free plus reclaimable memory.
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
		if b, res := px.resident[h]; res {
			hits++
			if b.refs == 0 {
				unpinnedHits++
			}
			continue
		}
		if restores < restoreBlocks {
			if _, off := px.offload[h]; off {
				restores++
				continue
			}
		}
		creates++
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
	if n := hits + restores + creates; cap(a.shared) < n {
		a.shared = make([]*prefixBlock, 0, n)
	}
	for _, h := range hashes {
		if b, res := px.resident[h]; res {
			if b.refs == 0 {
				px.lruRemove(b)
				p.logicalUsed += px.blockTokens
			}
			b.refs++
			a.shared = append(a.shared, b)
			hitTokens += px.blockTokens
		}
	}
	restores = 0
	for _, h := range hashes {
		if _, res := px.resident[h]; res {
			continue // pinned in the first pass
		}
		if restores < restoreBlocks {
			if ob, off := px.offload[h]; off {
				p.reclaimFor(px.physPerBlock)
				px.offRemove(ob)
				delete(px.offload, h)
				px.offFree = append(px.offFree, ob)
				b := px.newBlock(h)
				px.resident[h] = b
				p.freeBlocks -= px.physPerBlock
				p.logicalUsed += px.blockTokens
				a.shared = append(a.shared, b)
				restoredTokens += px.blockTokens
				restores++
				continue
			}
		}
		if ob, off := px.offload[h]; off {
			// Recomputing a block whose identity is still offloaded (the
			// restore budget ran out, or restoring was priced worse than
			// recompute): the resident copy supersedes the spilled one.
			px.offRemove(ob)
			delete(px.offload, h)
			px.offFree = append(px.offFree, ob)
		}
		p.reclaimFor(px.physPerBlock)
		b := px.newBlock(h)
		px.resident[h] = b
		p.freeBlocks -= px.physPerBlock
		p.logicalUsed += px.blockTokens
		a.shared = append(a.shared, b)
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
	for px.lruHead != nil {
		b := px.lruHead
		px.lruRemove(b)
		delete(px.resident, b.hash)
		px.blockFree = append(px.blockFree, b)
		p.freeBlocks += px.physPerBlock
		dropped++
	}
	if len(px.resident) != 0 {
		panic(fmt.Sprintf("kv: DropPrefixCache with %d pinned blocks", len(px.resident)))
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
		b := px.lruHead
		if b == nil {
			panic(fmt.Sprintf("kv: reclaim of %d blocks ran dry (free=%d)", need, p.freeBlocks))
		}
		px.lruRemove(b)
		delete(px.resident, b.hash)
		p.freeBlocks += px.physPerBlock
		px.stats.EvictedBlocks++
		if px.offCapBlocks != 0 {
			px.spill(b.hash)
			px.stats.SpilledBlocks++
		}
		px.blockFree = append(px.blockFree, b)
	}
}

// spill records an evicted block's identity in the offload store, dropping
// the store's own LRU entries when it is capacity-bounded.
func (px *prefixState) spill(hash uint64) {
	if ob, dup := px.offload[hash]; dup {
		px.offRemove(ob) // refresh recency
		px.offAppend(ob)
		return
	}
	for px.offCapBlocks > 0 && len(px.offload) >= px.offCapBlocks {
		old := px.offHead
		px.offRemove(old)
		delete(px.offload, old.hash)
		px.offFree = append(px.offFree, old)
	}
	var ob *offBlock
	if n := len(px.offFree); n > 0 {
		ob = px.offFree[n-1]
		px.offFree = px.offFree[:n-1]
	} else {
		ob = &offBlock{}
	}
	ob.hash = hash
	px.offload[hash] = ob
	px.offAppend(ob)
}

func (px *prefixState) newBlock(hash uint64) *prefixBlock {
	var b *prefixBlock
	if n := len(px.blockFree); n > 0 {
		b = px.blockFree[n-1]
		px.blockFree = px.blockFree[:n-1]
	} else {
		b = &prefixBlock{}
	}
	b.hash, b.refs, b.prev, b.next, b.inLRU = hash, 1, nil, nil, false
	return b
}

// releaseShared unpins an allocation's shared blocks at Free time: a block
// whose last pin drops becomes reclaimable cache (newest end of the LRU)
// and leaves the logical count. The slot keeps shared's capacity for its
// next allocation. Returns the logical tokens unpinned.
func (p *Pool) releaseShared(a *alloc) int {
	px := p.prefix
	for _, b := range a.shared {
		b.refs--
		if b.refs == 0 {
			px.lruAppend(b)
			p.logicalUsed -= px.blockTokens
		} else if b.refs < 0 {
			panic("kv: prefix block refcount underflow")
		}
	}
	released := len(a.shared) * px.blockTokens
	a.shared = a.shared[:0]
	return released
}

// Intrusive LRU helpers (reclaim list). Oldest at head, newest at tail.

func (px *prefixState) lruAppend(b *prefixBlock) {
	b.prev, b.next = px.lruTail, nil
	if px.lruTail != nil {
		px.lruTail.next = b
	} else {
		px.lruHead = b
	}
	px.lruTail = b
	b.inLRU = true
	px.freeCnt++
}

func (px *prefixState) lruRemove(b *prefixBlock) {
	if !b.inLRU {
		panic("kv: prefix block not on reclaim list")
	}
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		px.lruHead = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		px.lruTail = b.prev
	}
	b.prev, b.next, b.inLRU = nil, nil, false
	px.freeCnt--
}

func (px *prefixState) offAppend(ob *offBlock) {
	ob.prev, ob.next = px.offTail, nil
	if px.offTail != nil {
		px.offTail.next = ob
	} else {
		px.offHead = ob
	}
	px.offTail = ob
}

func (px *prefixState) offRemove(ob *offBlock) {
	if ob.prev != nil {
		ob.prev.next = ob.next
	} else {
		px.offHead = ob.next
	}
	if ob.next != nil {
		ob.next.prev = ob.prev
	} else {
		px.offTail = ob.prev
	}
	ob.prev, ob.next = nil, nil
}
