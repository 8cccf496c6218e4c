package minheap

import (
	"math/rand"
	"slices"
	"testing"
)

type item struct {
	key int
	seq int
	p   *int
}

func itemBefore(a, b *item) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// TestHeapMatchesStableSort drives random Push, Pop and Append+Init runs over
// keys drawn from a small range, so most keys tie and only the sequence
// number orders them, and checks every pop against a reference kept stably
// sorted by key: the least key first, insertion order among equals. It also
// checks that Pop zeroes the slot it vacates.
func TestHeapMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		h := New(itemBefore)
		var ref []item
		seq := 0
		add := func() item {
			seq++
			it := item{key: r.Intn(6), seq: seq, p: new(int)}
			ref = append(ref, it)
			return it
		}
		for op := 0; op < 4000; op++ {
			switch x := r.Float64(); {
			case x >= 0.9:
				for k := r.Intn(40); k > 0; k-- {
					h.Append(add())
				}
				h.Init()
			case x < 0.45 || h.Len() == 0:
				h.Push(add())
			default:
				slices.SortStableFunc(ref, func(a, b item) int { return a.key - b.key })
				if top := h.Top(); *top != ref[0] {
					t.Fatalf("seed %d op %d: top %+v, want %+v", seed, op, *top, ref[0])
				}
				got := h.Pop()
				if got != ref[0] {
					t.Fatalf("seed %d op %d: pop %+v, want %+v", seed, op, got, ref[0])
				}
				ref = ref[1:]
				if s := h.Items(); cap(s) > len(s) {
					if vacated := s[:len(s)+1][len(s)]; vacated != (item{}) {
						t.Fatalf("seed %d op %d: vacated slot holds %+v", seed, op, vacated)
					}
				}
			}
			if h.Len() != len(ref) {
				t.Fatalf("seed %d op %d: %d items, want %d", seed, op, h.Len(), len(ref))
			}
		}
		slices.SortStableFunc(ref, func(a, b item) int { return a.key - b.key })
		for i, want := range ref {
			if got := h.Pop(); got != want {
				t.Fatalf("seed %d drain %d: pop %+v, want %+v", seed, i, got, want)
			}
		}
	}
}

// TestHeapZeroAllocs pins the steady state: once the storage is warm, a Pop
// and a Push allocate nothing.
func TestHeapZeroAllocs(t *testing.T) {
	h := New(itemBefore)
	for i := 0; i < 512; i++ {
		h.Push(item{key: i % 97, seq: i})
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		it := h.Pop()
		it.key = i % 89
		it.seq = 512 + i
		i++
		h.Push(it)
	})
	if allocs != 0 {
		t.Fatalf("warm Pop+Push allocates %v per op, want 0", allocs)
	}
}
