package engine

import (
	"math/rand"
	"testing"

	"github.com/lightllm-go/lightllm/internal/request"
)

// naivePrefixWithin is the pre-prefix-sum inner loop: walk the queue head,
// summing footprints until the budget breaks — kept as the reference the
// deque's O(log n) PrefixWithin is checked (and benchmarked) against.
func naivePrefixWithin(d *reqDeque, budget int64, limit int) int {
	if limit > d.Len() {
		limit = d.Len()
	}
	var sum int64
	for i := 0; i < limit; i++ {
		sum += int64(d.At(i).Footprint())
		if sum > budget {
			return i
		}
	}
	return limit
}

// TestPrefixSumsMatchNaive drives the deque through a randomized mix of
// pushes, pops, evict-style front pushes, and filters, checking after every
// operation that the maintained prefix sums answer PrefixWithin exactly
// like the footprint walk.
func TestPrefixSumsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var d reqDeque
	id := int64(1)
	mk := func() *request.Request {
		r := request.New(id, 1+rng.Intn(900), 10, 64, 0)
		// Some requests look like eviction re-queues with generated tokens.
		for g := rng.Intn(5); g > 0; g-- {
			r.EmitToken(float64(id))
		}
		id++
		return r
	}
	check := func(op string) {
		t.Helper()
		if d.Len() == 0 {
			return
		}
		var want int64
		for i := 0; i < d.Len(); i++ {
			want += int64(d.At(i).Footprint())
			if got := d.cumAt(i); got != want {
				t.Fatalf("%s: prefix sum at %d = %d, want %d", op, i, got, want)
			}
		}
		for trial := 0; trial < 4; trial++ {
			budget := int64(rng.Intn(int(want) + 100))
			limit := 1 + rng.Intn(d.Len())
			if got, ref := d.PrefixWithin(budget, limit), naivePrefixWithin(&d, budget, limit); got != ref {
				t.Fatalf("%s: PrefixWithin(%d, %d) = %d, want %d", op, budget, limit, got, ref)
			}
		}
	}
	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(10); {
		case r < 4:
			d.PushBack(mk())
			check("push-back")
		case r < 6:
			d.PushFront(mk())
			check("push-front")
		case r < 9:
			if d.Len() > 0 {
				d.PopFront()
				check("pop-front")
			}
		default:
			d.Filter(func(*request.Request) bool { return rng.Intn(4) > 0 }, nil)
			check("filter")
		}
	}
}

// BenchmarkPrefillTrim shows the MaxPrefillTokens inner loop is gone: the
// deque-maintained prefix sums answer the fusion cut in O(log n) versus the
// former O(k) footprint walk over the admitted prefix.
func BenchmarkPrefillTrim(b *testing.B) {
	const queueLen = 1024
	var d reqDeque
	rng := rand.New(rand.NewSource(7))
	var total int64
	for i := 0; i < queueLen; i++ {
		r := request.New(int64(i+1), 200+rng.Intn(800), 10, 64, 0)
		total += int64(r.Footprint())
		d.PushBack(r)
	}
	budget := total / 2 // the cut lands mid-queue
	b.Run("prefix-sum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d.PrefixWithin(budget, queueLen) == 0 {
				b.Fatal("empty cut")
			}
		}
	})
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if naivePrefixWithin(&d, budget, queueLen) == 0 {
				b.Fatal("empty cut")
			}
		}
	})
}
