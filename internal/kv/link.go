package kv

import "fmt"

// Link models the KV-cache transfer path between disaggregated prefill and
// decode workers (NVLink/RDMA in Dynamo-style deployments, PCIe within a
// node): a handoff is not free — it pays a fixed latency plus the cache
// size over the link bandwidth, and transfers serialize behind each other
// on their wire, so a burst of simultaneous handoffs queues.
//
// The link is a simulation-time resource like the Pool: not safe for
// concurrent use, owned single-threaded by the cluster event loop.
type Link struct {
	// BandwidthBytesPerSec is the effective transfer bandwidth. 0 models an
	// infinitely fast wire (latency-only link).
	BandwidthBytesPerSec float64
	// LatencySec is the fixed per-transfer setup cost (connection, metadata
	// exchange, kernel launch on both ends).
	LatencySec float64
	// PerDestination gives every destination its own ingress lane (a
	// per-GPU NIC on a non-blocking fabric): transfers to different
	// destinations overlap, transfers to the same destination serialize. A
	// negative destination still takes the shared wire.
	PerDestination bool

	busyUntil float64
	lanes     []float64 // per-destination busy-until, grown on demand
}

// NewLink validates the parameters and builds a link with one shared wire.
func NewLink(bandwidthBytesPerSec, latencySec float64) (*Link, error) {
	if bandwidthBytesPerSec < 0 {
		return nil, fmt.Errorf("kv: negative link bandwidth %v", bandwidthBytesPerSec)
	}
	if latencySec < 0 {
		return nil, fmt.Errorf("kv: negative link latency %v", latencySec)
	}
	return &Link{BandwidthBytesPerSec: bandwidthBytesPerSec, LatencySec: latencySec}, nil
}

// MustNewLink is NewLink for statically valid parameters.
func MustNewLink(bandwidthBytesPerSec, latencySec float64) *Link {
	l, err := NewLink(bandwidthBytesPerSec, latencySec)
	if err != nil {
		panic(err)
	}
	return l
}

// TransferTime returns the wire time for one transfer of the given size,
// ignoring queueing.
func (l *Link) TransferTime(bytes int64) float64 {
	if bytes < 0 {
		panic(fmt.Sprintf("kv: negative transfer size %d", bytes))
	}
	t := l.LatencySec
	if l.BandwidthBytesPerSec > 0 {
		t += float64(bytes) / l.BandwidthBytesPerSec
	}
	return t
}

// ExpectedDelivery returns when a transfer of the given size to dst issued
// at now would land, given the current wire queueing — Schedule without the
// booking. The contention-aware router and the admission shed checks use it
// to price a handoff before committing bandwidth to it.
func (l *Link) ExpectedDelivery(now float64, bytes int64, dst int) float64 {
	return l.wireStart(now, dst) + l.TransferTime(bytes)
}

// Schedule books one transfer to dst issued at now and returns when it
// takes the wire and when it completes. The wire is dst's ingress lane with
// PerDestination and a destination that is not negative, else the shared
// wire. The transfer waits for that wire to free first; the wire is then
// busy until done.
//
// Bookings must be issued in nondecreasing `now` order — the cluster event
// loop guarantees this by deferring handoffs to issue-time-ordered events
// (booking in engine-step order instead used to queue an earlier-issued
// transfer behind a later one).
func (l *Link) Schedule(now float64, bytes int64, dst int) (start, done float64) {
	start = l.wireStart(now, dst)
	done = start + l.TransferTime(bytes)
	if !l.PerDestination || dst < 0 {
		l.busyUntil = done
		return start, done
	}
	for dst >= len(l.lanes) {
		l.lanes = append(l.lanes, 0)
	}
	l.lanes[dst] = done
	return start, done
}

// wireStart returns when a transfer to dst issued at now takes its wire.
func (l *Link) wireStart(now float64, dst int) float64 {
	return max(l.BusyUntil(dst), now)
}

// PreallocateLanes sizes the per-destination lane table up front so a
// long replay's Schedule calls never grow it mid-run. Purely a
// capacity hint: lane state and scheduling results are unchanged, and
// destinations beyond n still grow on demand.
func (l *Link) PreallocateLanes(n int) {
	if n <= len(l.lanes) {
		return
	}
	grown := make([]float64, n)
	copy(grown, l.lanes)
	l.lanes = grown
}

// Backoff returns the capped exponential retry delay for a failed transfer:
// base·2^attempt, clamped to cap. attempt counts completed failures (the
// first retry passes 0). base must be positive; cap below base clamps every
// delay to cap, which keeps the function total for degenerate configs.
func Backoff(base, cap float64, attempt int) float64 {
	if base <= 0 {
		panic(fmt.Sprintf("kv: non-positive backoff base %v", base))
	}
	if attempt < 0 {
		attempt = 0
	}
	d := base
	for i := 0; i < attempt; i++ {
		d *= 2
		if cap > 0 && d >= cap {
			break
		}
	}
	if cap > 0 && d > cap {
		d = cap
	}
	return d
}

// BusyUntil returns when the wire a transfer to dst takes frees (0 if never
// used): dst's lane with PerDestination and a destination that is not
// negative, else the shared wire.
func (l *Link) BusyUntil(dst int) float64 {
	if !l.PerDestination || dst < 0 {
		return l.busyUntil
	}
	if dst < len(l.lanes) {
		return l.lanes[dst]
	}
	return 0
}
