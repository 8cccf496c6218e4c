package engine

import "github.com/lightllm-go/lightllm/internal/request"

// reqDeque is the FCFS wait queue: a growable ring-buffer deque with O(1)
// PushBack (arrivals), PushFront (eviction re-queues), and PopFront
// (admissions). It replaces the previous []*request.Request representation,
// whose eviction path allocated and copied the whole queue on every
// PushFront and whose head pops (queue = queue[1:]) kept popped request
// pointers reachable through the backing array for the life of the engine.
// Every vacated slot is nil'ed so popped requests become collectable as
// soon as the engine is done with them. It keeps nothing but the requests:
// the MaxPrefillTokens trim walks the prefix the scheduler admitted.
type reqDeque struct {
	buf  []*request.Request
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

// PushBack appends a request to the tail (new arrival).
func (d *reqDeque) PushBack(r *request.Request) {
	d.grow()
	d.buf[(d.head+d.n)%len(d.buf)] = r
	d.n++
}

// PushFront prepends a request to the head (eviction re-queue: the victim
// must be re-admitted before newer arrivals).
func (d *reqDeque) PushFront(r *request.Request) {
	d.grow()
	d.head--
	if d.head < 0 {
		d.head = len(d.buf) - 1
	}
	d.buf[d.head] = r
	d.n++
}

// PopFront removes and returns the head, releasing its slot.
func (d *reqDeque) PopFront() *request.Request {
	if d.n == 0 {
		panic("engine: pop from empty queue")
	}
	r := d.buf[d.head]
	d.buf[d.head] = nil // release: do not retain popped requests
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return r
}

// Filter keeps the requests for which keep returns true, preserving FCFS
// order, and calls dropped (if non-nil) for each removed request. Vacated
// slots are nil'ed. O(n), no allocations.
func (d *reqDeque) Filter(keep func(*request.Request) bool, dropped func(*request.Request)) {
	w := 0 // write cursor, logical index
	for i := 0; i < d.n; i++ {
		r := d.buf[(d.head+i)%len(d.buf)]
		if !keep(r) {
			if dropped != nil {
				dropped(r)
			}
			continue
		}
		d.buf[(d.head+w)%len(d.buf)] = r
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

// grow doubles the ring when full.
func (d *reqDeque) grow() {
	if d.n < len(d.buf) {
		return
	}
	size := 2 * len(d.buf)
	if size < 8 {
		size = 8
	}
	next := make([]*request.Request, size)
	for i := 0; i < d.n; i++ {
		next[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = next
	d.head = 0
}
