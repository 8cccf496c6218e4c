// Package minheap is the binary min-heap behind every time- or
// deadline-ordered queue in the simulator: the engine's pending arrivals,
// the cluster's event queue and the admission controller's EDF queue.
//
// It is typed rather than container/heap: heap.Push and heap.Pop box every
// item in an interface{}, which allocates per push, and the scheduling hot
// paths (one push and one pop per arrival, event or hold) must not allocate
// in steady state. The storage is kept across pops, so a warm heap pushes
// and pops without allocating, and Pop zeroes the slot it vacates so a
// popped item's pointers are not pinned by the spare capacity.
//
// The order is a less function over item pointers given at construction.
// Each caller's order breaks every tie (by a sequence number), so the pop
// order never depends on the heap's internal layout.
package minheap

// Heap is a binary min-heap of T under less. The zero Heap has no order:
// build one with New.
type Heap[T any] struct {
	items []T
	less  func(a, b *T) bool
}

// New returns an empty heap ordered by less: less(a, b) reports whether a
// pops before b.
func New[T any](less func(a, b *T) bool) Heap[T] {
	return Heap[T]{less: less}
}

// Len returns the number of items in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Top returns the least item without removing it. The heap must not be
// empty; the pointer is valid until the next Push, Pop, Append or Init.
func (h *Heap[T]) Top() *T { return &h.items[0] }

// Items returns the heap's storage, in no particular order, for walks that
// do not need the order. The caller must not change it.
func (h *Heap[T]) Items() []T { return h.items }

// Push adds x to the heap.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	s := h.items
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// Pop removes and returns the least item. The heap must not be empty.
func (h *Heap[T]) Pop() T {
	s := h.items
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	var zero T
	s[n] = zero // release whatever the item points to
	h.items = s[:n]
	h.down(0)
	return top
}

// Append adds x without restoring the heap order: a run of Appends must be
// followed by Init before the next Top, Push or Pop.
func (h *Heap[T]) Append(x T) { h.items = append(h.items, x) }

// Init restores the heap order over the whole storage with Floyd's
// bottom-up heapify, O(n): the bulk path after a run of Appends.
func (h *Heap[T]) Init() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts the item at i down to its place.
func (h *Heap[T]) down(i int) {
	s := h.items
	n := len(s)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(&s[l], &s[smallest]) {
			smallest = l
		}
		if r < n && h.less(&s[r], &s[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}
