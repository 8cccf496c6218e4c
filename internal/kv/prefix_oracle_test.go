package kv

import (
	"maps"
	"slices"
	"testing"
)

// refPool is the map-based prefix cache this package shipped before the flat
// table — resident blocks and offloaded identities as heap nodes indexed by
// two Go maps, LRU lists linked by pointer — together with the allocator
// accounting around it, kept as the oracle FuzzPrefixSequence holds Pool to.
// It differs from that cache in one place, marked below.
type refPool struct {
	blockSize, totalBlocks, freeBlocks int
	logicalUsed                        int
	allocs                             map[int]*refAlloc
	nextID                             int

	blockTokens, physPerBlock int
	resident                  map[uint64]*refBlock
	lruHead, lruTail          *refBlock
	freeCnt                   int
	offCapBlocks              int
	offload                   map[uint64]*refOff
	offHead, offTail          *refOff
	stats                     PrefixStats
}

type refAlloc struct {
	tokens, blocks int
	shared         []*refBlock
}

type refBlock struct {
	hash       uint64
	refs       int
	prev, next *refBlock
}

type refOff struct {
	hash       uint64
	prev, next *refOff
}

func newRefPool(capacity, blockSize int, cfg PrefixConfig) *refPool {
	total := capacity / blockSize
	offCap := 0
	switch {
	case cfg.OffloadCapacityTokens < 0:
		offCap = -1
	case cfg.OffloadCapacityTokens > 0:
		offCap = max(cfg.OffloadCapacityTokens/cfg.BlockTokens, 1)
	}
	return &refPool{
		blockSize: blockSize, totalBlocks: total, freeBlocks: total,
		allocs:      map[int]*refAlloc{},
		blockTokens: cfg.BlockTokens, physPerBlock: cfg.BlockTokens / blockSize,
		resident:     map[uint64]*refBlock{},
		offCapBlocks: offCap,
		offload:      map[uint64]*refOff{},
	}
}

func (p *refPool) freeTokens() int {
	return p.freeBlocks*p.blockSize + p.freeCnt*p.blockTokens
}

func (p *refPool) prefixStats() PrefixStats {
	s := p.stats
	s.ResidentBlocks, s.ReclaimableBlocks, s.OffloadBlocks = len(p.resident), p.freeCnt, len(p.offload)
	return s
}

func (p *refPool) allocatedTokens(id int) int {
	a := p.allocs[id]
	return a.tokens + len(a.shared)*p.blockTokens
}

func (p *refPool) add(a *refAlloc) int {
	p.nextID++
	p.allocs[p.nextID] = a
	return p.nextID
}

func (p *refPool) allocate(tokens int) (int, bool) {
	need := blocksFor(tokens, p.blockSize)
	if need > p.freeBlocks {
		if need > p.freeBlocks+p.freeCnt*p.physPerBlock {
			return 0, false
		}
		p.reclaimFor(need)
	}
	p.freeBlocks -= need
	p.logicalUsed += tokens
	return p.add(&refAlloc{tokens: tokens, blocks: need}), true
}

func (p *refPool) extend(id, extra int) bool {
	a := p.allocs[id]
	need := blocksFor(a.tokens+extra, p.blockSize) - a.blocks
	if need > p.freeBlocks {
		if need > p.freeBlocks+p.freeCnt*p.physPerBlock {
			return false
		}
		p.reclaimFor(need)
	}
	p.freeBlocks -= need
	a.blocks += need
	a.tokens += extra
	p.logicalUsed += extra
	return true
}

func (p *refPool) free(id int) int {
	a := p.allocs[id]
	delete(p.allocs, id)
	p.freeBlocks += a.blocks
	p.logicalUsed -= a.tokens
	for _, b := range a.shared {
		b.refs--
		if b.refs == 0 {
			p.lruAppend(b)
			p.logicalUsed -= p.blockTokens
		}
	}
	return a.tokens + len(a.shared)*p.blockTokens
}

func (p *refPool) matchPrefixDetail(hashes []uint64) (hitBlocks, offloadBlocks int) {
	for _, h := range hashes {
		if _, ok := p.resident[h]; ok {
			hitBlocks++
		} else if _, ok := p.offload[h]; ok {
			offloadBlocks++
		}
	}
	return hitBlocks, offloadBlocks
}

func (p *refPool) allocatePrefixed(tokens int, hashes []uint64, restoreBlocks int) (id, hitTokens, restoredTokens int, ok bool) {
	hits, unpinnedHits, restores, creates := 0, 0, 0, 0
	for _, h := range hashes {
		if b, res := p.resident[h]; res {
			hits++
			if b.refs == 0 {
				unpinnedHits++
			}
			continue
		}
		if restores < restoreBlocks {
			if _, off := p.offload[h]; off {
				restores++
				continue
			}
		}
		creates++
	}
	private := tokens - len(hashes)*p.blockTokens
	needPhys := (restores+creates)*p.physPerBlock + blocksFor(private, p.blockSize)
	if needPhys > p.freeBlocks+(p.freeCnt-unpinnedHits)*p.physPerBlock {
		return 0, 0, 0, false
	}
	a := &refAlloc{tokens: private, blocks: blocksFor(private, p.blockSize)}
	for _, h := range hashes {
		if b, res := p.resident[h]; res {
			if b.refs == 0 {
				p.lruRemove(b)
				p.logicalUsed += p.blockTokens
			}
			b.refs++
			a.shared = append(a.shared, b)
			hitTokens += p.blockTokens
		}
	}
	restores = 0
	for _, h := range hashes {
		if _, res := p.resident[h]; res {
			continue
		}
		if restores < restoreBlocks {
			if ob, off := p.offload[h]; off {
				p.reclaimFor(p.physPerBlock)
				// The one change from the map-based cache: the reclaim's
				// spill may have dropped ob as the full store's oldest entry,
				// which the old code then unlinked a second time, corrupting
				// the store. The identity is restored all the same.
				if p.offload[h] == ob {
					p.offRemove(ob)
					delete(p.offload, h)
				}
				b := &refBlock{hash: h, refs: 1}
				p.resident[h] = b
				p.freeBlocks -= p.physPerBlock
				p.logicalUsed += p.blockTokens
				a.shared = append(a.shared, b)
				restoredTokens += p.blockTokens
				restores++
				continue
			}
		}
		if ob, off := p.offload[h]; off {
			p.offRemove(ob)
			delete(p.offload, h)
		}
		p.reclaimFor(p.physPerBlock)
		b := &refBlock{hash: h, refs: 1}
		p.resident[h] = b
		p.freeBlocks -= p.physPerBlock
		p.logicalUsed += p.blockTokens
		a.shared = append(a.shared, b)
	}
	if a.blocks > 0 {
		p.reclaimFor(a.blocks)
		p.freeBlocks -= a.blocks
	}
	p.logicalUsed += private
	p.stats.HitTokens += int64(hitTokens)
	p.stats.RestoredTokens += int64(restoredTokens)
	return p.add(a), hitTokens, restoredTokens, true
}

func (p *refPool) dropPrefixCache() int {
	dropped := 0
	for p.lruHead != nil {
		b := p.lruHead
		p.lruRemove(b)
		delete(p.resident, b.hash)
		p.freeBlocks += p.physPerBlock
		dropped++
	}
	p.stats.DroppedBlocks += int64(dropped)
	return dropped
}

func (p *refPool) reclaimFor(need int) {
	for p.freeBlocks < need {
		b := p.lruHead
		p.lruRemove(b)
		delete(p.resident, b.hash)
		p.freeBlocks += p.physPerBlock
		p.stats.EvictedBlocks++
		if p.offCapBlocks != 0 {
			p.spill(b.hash)
			p.stats.SpilledBlocks++
		}
	}
}

func (p *refPool) spill(hash uint64) {
	if ob, dup := p.offload[hash]; dup {
		p.offRemove(ob)
		p.offAppend(ob)
		return
	}
	for p.offCapBlocks > 0 && len(p.offload) >= p.offCapBlocks {
		old := p.offHead
		p.offRemove(old)
		delete(p.offload, old.hash)
	}
	ob := &refOff{hash: hash}
	p.offload[hash] = ob
	p.offAppend(ob)
}

func (p *refPool) lruAppend(b *refBlock) {
	b.prev, b.next = p.lruTail, nil
	if p.lruTail != nil {
		p.lruTail.next = b
	} else {
		p.lruHead = b
	}
	p.lruTail = b
	p.freeCnt++
}

func (p *refPool) lruRemove(b *refBlock) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		p.lruHead = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		p.lruTail = b.prev
	}
	b.prev, b.next = nil, nil
	p.freeCnt--
}

func (p *refPool) offAppend(ob *refOff) {
	ob.prev, ob.next = p.offTail, nil
	if p.offTail != nil {
		p.offTail.next = ob
	} else {
		p.offHead = ob
	}
	p.offTail = ob
}

func (p *refPool) offRemove(ob *refOff) {
	if ob.prev != nil {
		ob.prev.next = ob.next
	} else {
		p.offHead = ob.next
	}
	if ob.next != nil {
		ob.next.prev = ob.prev
	} else {
		p.offTail = ob.prev
	}
	ob.prev, ob.next = nil, nil
}

// state lists the cache as the oracle comparison reads it: the reclaim
// list and the offload store oldest first (their order is the order of
// the next evictions and drops), and every resident block's refs.
func (p *refPool) state() (reclaim, offload []uint64, refs map[uint64]int) {
	for b := p.lruHead; b != nil; b = b.next {
		reclaim = append(reclaim, b.hash)
	}
	for ob := p.offHead; ob != nil; ob = ob.next {
		offload = append(offload, ob.hash)
	}
	refs = map[uint64]int{}
	for h, b := range p.resident {
		refs[h] = b.refs
	}
	return reclaim, offload, refs
}

// state is refPool.state for the flat cache.
func (px *prefixState) state() (reclaim, offload []uint64, refs map[uint64]int) {
	for s := px.lruHead; s != noSlot; s = px.blocks[s].next {
		reclaim = append(reclaim, px.blocks[s].hash)
	}
	for s := px.offHead; s != noSlot; s = px.off[s].next {
		offload = append(offload, px.off[s].hash)
	}
	refs = map[uint64]int{}
	for _, e := range px.table {
		if e.ref > 0 {
			refs[e.hash] = int(px.blocks[e.ref-1].refs)
		}
	}
	return reclaim, offload, refs
}

// Operations of a FuzzPrefixSequence input, each an opcode byte followed
// by its arguments.
const (
	opPrefixed = iota // family, blocks, restore budget, private tokens (2 bytes)
	opAllocate        // tokens − 1 (2 bytes)
	opExtend          // live allocation, extra tokens − 1
	opFree            // live allocation
	opCrash           // free every live allocation, then DropPrefixCache
	numOps
)

// fuzzFamilies are the chains requests draw prefixes of: one family's
// requests share their leading blocks, two families share none.
var fuzzFamilies = func() [][]uint64 {
	fams := make([][]uint64, 6)
	for i := range fams {
		fams[i] = hashes(8, uint64(i+1))
	}
	return fams
}()

// opSeq builds FuzzPrefixSequence inputs for the seed corpus.
type opSeq []byte

func (s opSeq) prefixed(fam, blocks, restore, private int) opSeq {
	return append(s, opPrefixed, byte(fam), byte(blocks), byte(restore), byte(private), byte(private>>8))
}
func (s opSeq) allocate(tokens int) opSeq {
	return append(s, opAllocate, byte(tokens-1), byte((tokens-1)>>8))
}
func (s opSeq) extend(i, extra int) opSeq { return append(s, opExtend, byte(i), byte(extra-1)) }
func (s opSeq) free(i int) opSeq          { return append(s, opFree, byte(i)) }
func (s opSeq) crash() opSeq              { return append(s, opCrash) }

// Pool shapes, one byte: capacity, block size and offload store.
var (
	fuzzCapacity = [4]int{128, 256, 512, 1024}
	fuzzBlock    = [2]int{1, 16}
	fuzzOffload  = [4]int{0, -1, 64, 192} // tokens: none, unbounded, 1 block, 3 blocks
)

func fuzzShape(capIdx, blockIdx, offIdx int) uint8 {
	return uint8(capIdx | blockIdx<<2 | offIdx<<3)
}

// FuzzPrefixSequence runs a random sequence of allocations, extensions,
// frees and crash drops on a small prefix-cached pool and on refPool side by
// side. Every return value, the stats, the token counts, every resident
// block's refs and the order of both LRU lists must agree after every
// operation, and CheckInvariants must hold.
func FuzzPrefixSequence(f *testing.F) {
	// The scenarios of the TestPrefix* tests, on the nearest shapes, and two
	// more: a restore whose own reclaim spills it out of a full store, and a
	// churn through a bounded store with decode growth.
	seeds := []struct {
		shape uint8
		ops   opSeq
	}{
		{fuzzShape(3, 1, 0), opSeq{}.prefixed(0, 4, 0, 44).prefixed(0, 4, 0, 44).free(0).free(0)},
		{fuzzShape(1, 0, 1), opSeq{}.prefixed(0, 1, 0, 0).prefixed(1, 1, 0, 0).prefixed(2, 1, 0, 0).
			free(0).free(0).free(0).prefixed(3, 1, 0, 64)},
		{fuzzShape(1, 0, 1), opSeq{}.prefixed(0, 2, 0, 0).free(0).prefixed(1, 4, 0, 0).free(0).
			prefixed(0, 2, 2, 0).free(0).prefixed(2, 4, 0, 0).free(0).prefixed(0, 2, 0, 0)},
		{fuzzShape(0, 0, 2), opSeq{}.prefixed(0, 1, 0, 0).free(0).prefixed(1, 1, 0, 0).free(0).prefixed(2, 2, 0, 0)},
		{fuzzShape(1, 0, 1), opSeq{}.prefixed(0, 1, 0, 0).free(0).prefixed(1, 2, 0, 128).crash().prefixed(0, 1, 1, 0)},
		{fuzzShape(3, 0, 0), opSeq{}.prefixed(0, 3, 0, 0).prefixed(0, 3, 0, 0).free(0).free(0).
			prefixed(1, 2, 0, 768).free(0).prefixed(0, 3, 0, 0)},
		{fuzzShape(0, 0, 0), opSeq{}.prefixed(0, 2, 0, 0).free(0).allocate(128)},
		{fuzzShape(0, 0, 0), opSeq{}.prefixed(0, 2, 0, 0).prefixed(1, 1, 0, 0)},
		{fuzzShape(0, 0, 2), opSeq{}.prefixed(0, 1, 0, 0).free(0).prefixed(1, 2, 0, 0).free(0).prefixed(0, 1, 1, 0)},
		{fuzzShape(2, 1, 3), opSeq{}.prefixed(0, 3, 0, 20).prefixed(1, 2, 0, 5).extend(0, 40).prefixed(0, 5, 0, 1).
			free(1).extend(1, 64).prefixed(2, 4, 8, 0).free(0).prefixed(1, 8, 8, 0).
			allocate(100).free(2).prefixed(0, 6, 2, 33).crash().prefixed(1, 8, 8, 0)},
	}
	for _, sd := range seeds {
		f.Add(sd.shape, []byte(sd.ops))
	}

	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		capacity, blockSize := fuzzCapacity[shape&3], fuzzBlock[shape>>2&1]
		cfg := PrefixConfig{BlockTokens: 64, OffloadCapacityTokens: fuzzOffload[shape>>3&3]}
		p := NewPool(capacity, blockSize)
		p.EnablePrefixCache(cfg)
		ref := newRefPool(capacity, blockSize, cfg)
		type held struct {
			h  Handle
			id int
		}
		var live []held
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		pick := func() int { return next() % len(live) }
		for step := 0; len(ops) > 0; step++ {
			switch next() % numOps {
			case opPrefixed:
				chain := fuzzFamilies[next()%len(fuzzFamilies)][:next()%9]
				restore := next() % 9
				tokens := max(len(chain)*64+(next()|next()<<8)%1024, 1)
				for _, fam := range fuzzFamilies {
					hb, ob := p.MatchPrefixDetail(fam)
					rhb, rob := ref.matchPrefixDetail(fam)
					if hb != rhb || ob != rob || p.MatchPrefix(fam) != rhb*64 {
						t.Fatalf("step %d: match (%d, %d) vs oracle (%d, %d)", step, hb, ob, rhb, rob)
					}
				}
				h, hit, restored, ok := p.AllocatePrefixed(tokens, chain, restore)
				id, rhit, rrestored, rok := ref.allocatePrefixed(tokens, chain, restore)
				if ok != rok || hit != rhit || restored != rrestored {
					t.Fatalf("step %d: AllocatePrefixed(%d, %d blocks, %d) = (%d, %d, %v) vs oracle (%d, %d, %v)",
						step, tokens, len(chain), restore, hit, restored, ok, rhit, rrestored, rok)
				}
				if ok {
					live = append(live, held{h, id})
				}
			case opAllocate:
				tokens := 1 + (next()|next()<<8)%1024
				h, ok := p.Allocate(tokens)
				id, rok := ref.allocate(tokens)
				if ok != rok {
					t.Fatalf("step %d: Allocate(%d) = %v vs oracle %v", step, tokens, ok, rok)
				}
				if ok {
					live = append(live, held{h, id})
				}
			case opExtend:
				if len(live) == 0 {
					continue
				}
				x, extra := live[pick()], 1+next()%64
				if ok, rok := p.Extend(x.h, extra), ref.extend(x.id, extra); ok != rok {
					t.Fatalf("step %d: Extend(%d) = %v vs oracle %v", step, extra, ok, rok)
				}
			case opFree:
				if len(live) == 0 {
					continue
				}
				i := pick()
				if got, want := p.Free(live[i].h), ref.free(live[i].id); got != want {
					t.Fatalf("step %d: Free = %d vs oracle %d", step, got, want)
				}
				live = slices.Delete(live, i, i+1)
			case opCrash:
				for _, x := range live {
					p.Free(x.h)
					ref.free(x.id)
				}
				live = live[:0]
				if got, want := p.DropPrefixCache(), ref.dropPrefixCache(); got != want {
					t.Fatalf("step %d: DropPrefixCache = %d vs oracle %d", step, got, want)
				}
			}

			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if p.UsedTokens() != ref.logicalUsed || p.FreeTokens() != ref.freeTokens() || p.FreeBlocks() != ref.freeBlocks {
				t.Fatalf("step %d: used/free tokens/free blocks %d/%d/%d vs oracle %d/%d/%d", step,
					p.UsedTokens(), p.FreeTokens(), p.FreeBlocks(), ref.logicalUsed, ref.freeTokens(), ref.freeBlocks)
			}
			if got, want := p.PrefixStats(), ref.prefixStats(); got != want {
				t.Fatalf("step %d: stats %+v vs oracle %+v", step, got, want)
			}
			for _, x := range live {
				if got, want := p.AllocatedTokens(x.h), ref.allocatedTokens(x.id); got != want {
					t.Fatalf("step %d: allocation holds %d tokens vs oracle %d", step, got, want)
				}
			}
			reclaim, offload, refs := p.prefix.state()
			rreclaim, roffload, rrefs := ref.state()
			if !slices.Equal(reclaim, rreclaim) || !slices.Equal(offload, roffload) || !maps.Equal(refs, rrefs) {
				t.Fatalf("step %d: reclaim %x offload %x refs %v\nvs oracle reclaim %x offload %x refs %v",
					step, reclaim, offload, refs, rreclaim, roffload, rrefs)
			}
		}
	})
}
