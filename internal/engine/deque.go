package engine

import "github.com/lightllm-go/lightllm/internal/request"

// reqDeque is the FCFS wait queue: a growable ring-buffer deque with O(1)
// PushBack (arrivals), PushFront (eviction re-queues), and PopFront
// (admissions). It replaces the previous []*request.Request representation,
// whose eviction path allocated and copied the whole queue on every
// PushFront and whose head pops (queue = queue[1:]) kept popped request
// pointers reachable through the backing array for the life of the engine.
// Every vacated slot is nil'ed so popped requests become collectable as
// soon as the engine is done with them.
//
// Alongside the requests it maintains a running prompt-token prefix sum:
// cum[slot] + adj is the cumulative KV footprint of the queue from the head
// through that element. A footprint is frozen while a request waits
// (Generated only changes in the running batch), so every operation keeps
// the sums exact in O(1) — PushFront and PopFront shift all cumulative
// values by the head's footprint, which the shared adj offset absorbs
// without touching the stored values. PrefixWithin then answers "how many
// queue-head requests fit a prefill token budget" with one binary search,
// replacing the admission loop's per-candidate footprint walk.
type reqDeque struct {
	buf  []*request.Request
	cum  []int64 // cum[slot] + adj = footprint prefix sum through that element
	adj  int64
	head int // index of the front element when n > 0
	n    int
}

// Len returns the number of queued requests.
func (d *reqDeque) Len() int { return d.n }

// At returns the i-th request in FCFS order. It panics if i is out of range.
func (d *reqDeque) At(i int) *request.Request {
	if i < 0 || i >= d.n {
		panic("engine: queue index out of range")
	}
	return d.buf[(d.head+i)%len(d.buf)]
}

// Front returns the head of the queue. It panics on an empty deque.
func (d *reqDeque) Front() *request.Request { return d.At(0) }

// cumAt returns the cumulative footprint of the first i+1 queued requests.
func (d *reqDeque) cumAt(i int) int64 {
	return d.cum[(d.head+i)%len(d.buf)] + d.adj
}

// PrefixWithin returns the largest k ≤ limit such that the first k queued
// requests' footprints sum to at most budget — the MaxPrefillTokens fusion
// cut. O(log n) over the maintained prefix sums; 0 when even the head
// exceeds the budget (callers wanting guaranteed progress clamp to 1).
func (d *reqDeque) PrefixWithin(budget int64, limit int) int {
	if limit > d.n {
		limit = d.n
	}
	if limit <= 0 {
		return 0
	}
	// Prefix sums are strictly increasing (footprints ≥ 1): binary search
	// the first prefix exceeding the budget.
	lo, hi := 0, limit
	for lo < hi {
		mid := (lo + hi) / 2
		if d.cumAt(mid) > budget {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// PushBack appends a request to the tail (new arrival).
func (d *reqDeque) PushBack(r *request.Request) {
	d.grow()
	var prev int64
	if d.n > 0 {
		prev = d.cumAt(d.n - 1)
	}
	slot := (d.head + d.n) % len(d.buf)
	d.buf[slot] = r
	d.cum[slot] = prev + int64(r.Footprint()) - d.adj
	d.n++
}

// PushFront prepends a request to the head (eviction re-queue: the victim
// must be re-admitted before newer arrivals). Every existing prefix sum
// grows by the new head's footprint; adj absorbs the shift in O(1).
func (d *reqDeque) PushFront(r *request.Request) {
	d.grow()
	d.head--
	if d.head < 0 {
		d.head = len(d.buf) - 1
	}
	foot := int64(r.Footprint())
	d.adj += foot
	d.buf[d.head] = r
	d.cum[d.head] = foot - d.adj
	d.n++
}

// PopFront removes and returns the head, releasing its slot. Every
// remaining prefix sum shrinks by the head's footprint, absorbed by adj.
func (d *reqDeque) PopFront() *request.Request {
	if d.n == 0 {
		panic("engine: pop from empty queue")
	}
	r := d.buf[d.head]
	d.adj -= d.cum[d.head] + d.adj // subtract the head's footprint
	d.buf[d.head] = nil            // release: do not retain popped requests
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return r
}

// Filter keeps the requests for which keep returns true, preserving FCFS
// order, and calls dropped (if non-nil) for each removed request. Vacated
// slots are nil'ed; prefix sums are rebuilt during the same pass. O(n), no
// allocations.
func (d *reqDeque) Filter(keep func(*request.Request) bool, dropped func(*request.Request)) {
	w := 0 // write cursor, logical index
	var running int64
	d.adj = 0
	for i := 0; i < d.n; i++ {
		r := d.buf[(d.head+i)%len(d.buf)]
		if !keep(r) {
			if dropped != nil {
				dropped(r)
			}
			continue
		}
		running += int64(r.Footprint())
		slot := (d.head + w) % len(d.buf)
		d.buf[slot] = r
		d.cum[slot] = running
		w++
	}
	for i := w; i < d.n; i++ {
		d.buf[(d.head+i)%len(d.buf)] = nil
	}
	d.n = w
}

// ForEach calls f for every queued request in FCFS order. O(n), no
// allocations; f must not mutate the deque.
func (d *reqDeque) ForEach(f func(*request.Request)) {
	for i := 0; i < d.n; i++ {
		f(d.buf[(d.head+i)%len(d.buf)])
	}
}

// AppendTo appends the queued requests in FCFS order to dst and returns the
// extended slice. With a pre-grown dst this performs no allocations; it is
// how the per-step queue snapshot handed to the scheduler is materialised.
func (d *reqDeque) AppendTo(dst []*request.Request) []*request.Request {
	for i := 0; i < d.n; i++ {
		dst = append(dst, d.buf[(d.head+i)%len(d.buf)])
	}
	return dst
}

// grow doubles the ring when full, rebasing the prefix sums at adj = 0.
func (d *reqDeque) grow() {
	if d.n < len(d.buf) {
		return
	}
	size := 2 * len(d.buf)
	if size < 8 {
		size = 8
	}
	next := make([]*request.Request, size)
	nextCum := make([]int64, size)
	var running int64
	for i := 0; i < d.n; i++ {
		r := d.buf[(d.head+i)%len(d.buf)]
		running += int64(r.Footprint())
		next[i] = r
		nextCum[i] = running
	}
	d.buf = next
	d.cum = nextCum
	d.adj = 0
	d.head = 0
}
