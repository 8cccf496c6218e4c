package kv

import (
	"math"
	"testing"

	"github.com/lightllm-go/lightllm/internal/rng"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLinkValidation(t *testing.T) {
	if _, err := NewLink(-1, 0); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	if _, err := NewLink(0, -1); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestLinkTransferTime(t *testing.T) {
	l := MustNewLink(100, 0.5) // 100 B/s, 500 ms setup
	if got := l.TransferTime(200); !almost(got, 2.5) {
		t.Fatalf("transfer time %v, want 2.5", got)
	}
	// Zero bandwidth = infinitely fast wire: latency only.
	fast := MustNewLink(0, 0.25)
	if got := fast.TransferTime(1 << 40); !almost(got, 0.25) {
		t.Fatalf("latency-only transfer time %v, want 0.25", got)
	}
	if got := l.TransferTime(0); !almost(got, 0.5) {
		t.Fatalf("empty transfer time %v, want latency 0.5", got)
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	l := MustNewLink(100, 0) // 1 byte per 10 ms
	// Two transfers issued at the same instant queue behind each other.
	_, first := l.Schedule(10, 100, -1) // 10 → 11
	_, second := l.Schedule(10, 50, -1) // waits: 11 → 11.5
	if !almost(first, 11) || !almost(second, 11.5) {
		t.Fatalf("serialized completions (%v, %v), want (11, 11.5)", first, second)
	}
	if !almost(l.BusyUntil(-1), 11.5) {
		t.Fatalf("busyUntil %v, want 11.5", l.BusyUntil(-1))
	}
	// A transfer issued after the wire freed starts immediately.
	_, third := l.Schedule(20, 100, -1)
	if !almost(third, 21) {
		t.Fatalf("post-idle completion %v, want 21", third)
	}
}

func TestLinkExpectedDeliveryIsNonMutating(t *testing.T) {
	l := MustNewLink(100, 0) // 1 byte per 10 ms
	// A preview matches what Schedule would return, and booking nothing.
	if got := l.ExpectedDelivery(10, 100, -1); !almost(got, 11) {
		t.Fatalf("expected delivery %v, want 11", got)
	}
	if l.BusyUntil(-1) != 0 {
		t.Fatal("preview booked the wire")
	}
	_, first := l.Schedule(10, 100, -1) // wire busy until 11
	if !almost(first, 11) {
		t.Fatalf("schedule %v, want 11", first)
	}
	// The preview now sees the queueing the booking created.
	if got := l.ExpectedDelivery(10.5, 50, -1); !almost(got, 11.5) {
		t.Fatalf("queued expected delivery %v, want 11.5", got)
	}
	if _, got := l.Schedule(10.5, 50, -1); !almost(got, 11.5) {
		t.Fatalf("queued schedule %v, want 11.5", got)
	}
}

// TestBackoffProperties pins the retry-backoff contract: attempt 0 returns
// the base, the delay doubles per attempt until the cap, never exceeds the
// cap, and never decreases as attempts grow — including degenerate configs
// (cap below base, huge attempt counts that would overflow naive 2^n).
func TestBackoffProperties(t *testing.T) {
	if got := Backoff(0.05, 0.4, 0); !almost(got, 0.05) {
		t.Fatalf("attempt 0 backoff %v, want base 0.05", got)
	}
	if got := Backoff(0.05, 0.4, 2); !almost(got, 0.2) {
		t.Fatalf("attempt 2 backoff %v, want 0.2", got)
	}
	if got := Backoff(0.05, 0.4, 1000); !almost(got, 0.4) {
		t.Fatalf("huge attempt backoff %v, want cap 0.4", got)
	}
	if got := Backoff(0.5, 0.1, 3); !almost(got, 0.1) {
		t.Fatalf("cap-below-base backoff %v, want cap 0.1", got)
	}
	if got := Backoff(0.05, 0, 4); !almost(got, 0.8) {
		t.Fatalf("uncapped backoff %v, want 0.8", got)
	}
	if got := Backoff(0.05, 0.4, -3); !almost(got, 0.05) {
		t.Fatalf("negative attempt backoff %v, want base", got)
	}
	prev := 0.0
	for a := 0; a < 64; a++ {
		d := Backoff(0.05, 0.4, a)
		if d < prev {
			t.Fatalf("backoff regressed at attempt %d: %v < %v", a, d, prev)
		}
		if d > 0.4+1e-12 {
			t.Fatalf("backoff %v exceeds cap at attempt %d", d, a)
		}
		prev = d
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive base accepted")
		}
	}()
	Backoff(0, 1, 0)
}

// TestLinkBusyNeverRegresses drives randomized Schedule sequences — mixed
// destinations, retry-style nondecreasing issue times, interleaved
// non-mutating previews — and pins the wire invariants: the shared and
// per-lane busy-until times never move backward, every booking lands no
// earlier than issue + transfer time, and previews never book.
func TestLinkBusyNeverRegresses(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		l := MustNewLink(1e3, 0.01)
		l.PerDestination = true
		now := 0.0
		busy := map[int]float64{-1: 0} // -1 tracks the shared wire
		for op := 0; op < 2000; op++ {
			now += r.Float64() * 0.05 // nondecreasing issue times (the cluster contract)
			dst := r.Intn(4) - 1
			bytes := int64(r.Intn(200))
			if r.Float64() < 0.3 { // a preview must not book
				before := fingerprint(l)
				l.ExpectedDelivery(now, bytes, dst)
				if fingerprint(l) != before {
					t.Fatalf("seed %d op %d: preview mutated the link", seed, op)
				}
				continue
			}
			_, done := l.Schedule(now, bytes, dst)
			if min := now + l.TransferTime(bytes); done < min-1e-12 {
				t.Fatalf("seed %d op %d: delivery %v before issue+wire %v", seed, op, done, min)
			}
			key := dst
			if dst < 0 {
				key = -1
			}
			if done < busy[key] {
				t.Fatalf("seed %d op %d: lane %d busy regressed %v -> %v", seed, op, dst, busy[key], done)
			}
			busy[key] = done
			if l.BusyUntil(-1) < busy[-1] || l.BusyUntil(-1) != busy[-1] {
				t.Fatalf("seed %d op %d: shared busy %v, want %v", seed, op, l.BusyUntil(-1), busy[-1])
			}
			for d := 0; d < 3; d++ {
				if got := l.BusyUntil(d); got != busy[d] && busy[d] != 0 {
					t.Fatalf("seed %d op %d: lane %d busy %v, want %v", seed, op, d, got, busy[d])
				}
			}
		}
	}
}

// fingerprint snapshots every observable busy-until on the link.
func fingerprint(l *Link) [9]float64 {
	var s [9]float64
	s[0] = l.BusyUntil(-1)
	for d := 0; d < 8; d++ {
		s[d+1] = l.BusyUntil(d)
	}
	return s
}

func TestLinkPerDestinationLanes(t *testing.T) {
	l := MustNewLink(100, 0)
	l.PerDestination = true
	// Same instant, different destinations: the lanes overlap.
	_, a := l.Schedule(10, 100, 0)
	_, b := l.Schedule(10, 100, 1)
	if !almost(a, 11) || !almost(b, 11) {
		t.Fatalf("cross-lane completions (%v, %v), want (11, 11)", a, b)
	}
	// Same destination: the lane serializes, and the preview prices it.
	if got := l.ExpectedDelivery(10, 50, 0); !almost(got, 11.5) {
		t.Fatalf("lane-0 expected delivery %v, want 11.5", got)
	}
	if _, got := l.Schedule(10, 50, 0); !almost(got, 11.5) {
		t.Fatalf("lane-0 completion %v, want 11.5", got)
	}
	if !almost(l.BusyUntil(0), 11.5) || !almost(l.BusyUntil(1), 11) {
		t.Fatalf("lane busy (%v, %v), want (11.5, 11)", l.BusyUntil(0), l.BusyUntil(1))
	}
	// The shared wire was never booked by lane traffic.
	if l.BusyUntil(-1) != 0 {
		t.Fatal("lane booking leaked onto the shared wire")
	}
	// A negative destination (monolithic callers) books the shared wire.
	if _, got := l.Schedule(10, 100, -1); !almost(got, 11) {
		t.Fatalf("shared-wire fallback %v, want 11", got)
	}
	if !almost(l.BusyUntil(-1), 11) {
		t.Fatalf("shared wire busy %v, want 11", l.BusyUntil(-1))
	}
	// Without PerDestination, every destination takes the shared wire.
	shared := MustNewLink(100, 0)
	_, x := shared.Schedule(10, 100, 0)
	_, y := shared.Schedule(10, 100, 1)
	if !almost(x, 11) || !almost(y, 12) {
		t.Fatalf("single-wire completions (%v, %v), want (11, 12)", x, y)
	}
}

// TestLinkReturnsWireStart pins what a booking reports: the wire start
// after any queueing on the shared wire or the destination's lane, and the
// completion the wire is then busy until.
func TestLinkReturnsWireStart(t *testing.T) {
	l := MustNewLink(100, 0.5)
	s1, d1 := l.Schedule(0, 100, -1)  // 0 → 1.5
	s2, d2 := l.Schedule(0.5, 50, -1) // queues behind the first: 1.5 → 2.5
	if !almost(s1, 0) || !almost(d1, 1.5) {
		t.Fatalf("first booking (%v, %v), want (0, 1.5)", s1, d1)
	}
	if !almost(s2, 1.5) || !almost(d2, 2.5) || l.BusyUntil(-1) != d2 {
		t.Fatalf("queued booking (%v, %v), busy until %v; want (1.5, 2.5)", s2, d2, l.BusyUntil(-1))
	}

	lanes := MustNewLink(100, 0)
	lanes.PerDestination = true
	s3, d3 := lanes.Schedule(10, 100, 3)
	s4, d4 := lanes.Schedule(10.5, 100, 3) // same lane: waits for 11
	if !almost(s3, 10) || !almost(d3, 11) || !almost(s4, 11) || !almost(d4, 12) || lanes.BusyUntil(3) != d4 {
		t.Fatalf("lane bookings (%v, %v) and (%v, %v), want (10, 11) and (11, 12)", s3, d3, s4, d4)
	}
}
