package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/lightllm-go/lightllm/internal/request"
)

// benchFleet builds a fleet whose replicas carry realistic running batches
// and queues, then returns it with a candidate to probe. The Serve warm-up
// also warms every replica's history window, so the probes measured are the
// steady-state hot path; with seed > 0 every window starts out holding that
// many observations (seededReplicas).
func benchFleet(tb testing.TB, nReplicas, seed int, naive bool) (*Fleet, *request.Request) {
	tb.Helper()
	f := MustNew(Config{
		Replicas:   seededReplicas(nReplicas, 20_000, seed),
		Policy:     FutureHeadroom,
		NaiveProbe: naive,
	})
	// 60 requests/replica at 10 req/s/replica arrive over ~6 s; stopping the
	// serve at 3 s leaves every replica with a populated batch and queue.
	f.Serve(poissonReqs(60*nReplicas, float64(10*nReplicas), 41), 3)
	return f, request.New(1_000_000, 800, 400, 512, 0)
}

// benchSeed is the window fill of the 96-replica rows: full 1000-sample
// windows, so the fleet's probe state (96 sorted windows of 8 kB beside the
// estimators and the requests) is far larger than the first-level cache that
// the 4- and 16-replica fleets run from. What a probe costs when the memory
// it reads is cold — the cost a replay of a large fleet pays — shows only
// here.
const benchSeed = 1000

// BenchmarkFleetRoute measures one FutureHeadroom routing decision across
// the fleet — the warm per-replica estimator path (rebuild amortised,
// PeakWith probes). The companion TestProbeZeroAllocs pins allocs/op to 0.
func BenchmarkFleetRoute(b *testing.B) {
	for _, tc := range []struct{ n, seed int }{{4, 0}, {16, 0}, {96, benchSeed}} {
		b.Run(fmt.Sprintf("replicas=%d", tc.n), func(b *testing.B) {
			f, cand := benchFleet(b, tc.n, tc.seed, false)
			f.pick(cand)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.pick(cand)
			}
		})
	}
}

// BenchmarkFleetRoutePureStep is a routing decision the way a replay of a
// large fleet makes it: 96 replicas with full windows, an eighth of them
// having taken a decode step since the previous arrival (replay-day steps
// 11.6 replicas per arrival, 87% of those steps plain decode iterations).
// (Until PR 21 a BenchmarkFleetRouteStepped invalidated that eighth instead;
// that workload, and its ledger trajectory, is
// BenchmarkFleetRouteRebuild/replicas=96.)
// The steps are real — batches of 20 requests long enough to outlast any
// b.N, on pools that never fill, so every one is a pure decode step and
// evicts the probe state from the cache the way a replay's does — and only
// the pick is timed (two clock reads, ~3% of it): 96 probes, 12 of them past
// their memo, and the one rebuild that proves the winner.
func BenchmarkFleetRoutePureStep(b *testing.B) {
	f := MustNew(Config{Replicas: seededReplicas(96, 1<<40, benchSeed), Policy: FutureHeadroom})
	for i, rep := range f.reps {
		for k := 0; k < 20; k++ {
			rep.eng.Submit(request.New(int64(100*i+k), 200+50*k, 1<<24, 1<<24, 0))
		}
		rep.eng.Step() // the prefill iteration
	}
	cand := request.New(1_000_000, 800, 400, 512, 0)
	f.pick(cand)
	var picking time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := i % 8; k < len(f.reps); k += 8 {
			rep := f.reps[k]
			rep.eng.Step()
			rep.moved(rep.eng.PureDecodeLastStep())
		}
		t0 := time.Now()
		f.pick(cand)
		picking += time.Since(t0)
	}
	for k := (b.N - 1) % 8; k < len(f.reps); k += 8 {
		if !f.reps[k].eng.PureDecodeLastStep() {
			b.Fatal("a replica's last step was not a pure decode step")
		}
	}
	b.ReportMetric(float64(picking.Nanoseconds())/float64(b.N), "ns/op")
}

// placeLoop returns place — one whole arrival on a warm fleet: the routing
// decision, the engine submission, and the splice that makes the placed
// request visible to the next decision (Pool.placed), with no estimator
// rebuild anywhere — and reset, which takes every replica back to its base
// load (evacuate, drop the placed candidates, resubmit, rebuild once) so a
// long loop does not grow the batches without bound. Nothing steps after
// benchFleet and a probe prices a waiting request like a running one, so it
// does not matter that the base load sits in the waiting set from the first
// reset on.
func placeLoop(tb testing.TB) (place, reset func()) {
	f, cand := benchFleet(tb, 4, 0, false)
	base := make([][]*request.Request, len(f.reps))
	place = func() {
		rep := f.pick(cand)
		rep.eng.Submit(cand)
		f.placed(rep, cand)
	}
	reset = func() {
		for i, rep := range f.reps {
			orphans := rep.eng.Crash()
			if base[i] == nil {
				base[i] = orphans
			}
			rep.eng.SubmitAll(base[i])
			rep.moved(false)
		}
		f.pick(cand)
	}
	reset()
	return place, reset
}

// placeBurst is how many placements placeLoop's callers make between two
// resets: 64 more entries per replica on top of benchFleet's 16–28, the
// batch sizes the splice has to stay cheap at.
const placeBurst = 256

// BenchmarkFleetRoutePlace measures place-then-probe: every iteration's
// pick probes the estimators the previous iteration spliced into. The
// companion TestPlaceThenProbeZeroAllocs pins allocs/op to 0.
func BenchmarkFleetRoutePlace(b *testing.B) {
	place, reset := placeLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%placeBurst == placeBurst-1 {
			b.StopTimer()
			reset()
			b.StartTimer()
		}
		place()
	}
}

// BenchmarkFleetRouteRebuild is the worst case, where no step since the
// previous arrival was a pure decode step and every estimator that moved
// rebuilds from its engine's state — every running request re-priced at its
// own length: all of a 4-replica fleet per decision, and an eighth of the
// 96-replica fleet with full windows (12 rebuilds and 96 probes, what every
// replay-day arrival cost before estimators outlived a decode step).
func BenchmarkFleetRouteRebuild(b *testing.B) {
	for _, tc := range []struct{ n, seed, every int }{{4, 0, 1}, {96, benchSeed, 8}} {
		b.Run(fmt.Sprintf("replicas=%d", tc.n), func(b *testing.B) {
			f, cand := benchFleet(b, tc.n, tc.seed, false)
			f.pick(cand)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := i % tc.every; k < len(f.reps); k += tc.every {
					f.reps[k].moved(false)
				}
				f.pick(cand)
			}
		})
	}
}

// BenchmarkFleetRouteNaive is the reference baseline: one clone+sort
// core.PredictedBatchPeak per replica per decision, as the original router
// computed it.
func BenchmarkFleetRouteNaive(b *testing.B) {
	f, cand := benchFleet(b, 4, 0, true)
	f.pick(cand)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.pick(cand)
	}
}

// BenchmarkClusterAdmit measures the deadline-heap hot path of cluster-front
// admission: one retry cycle's pop + re-push on a warm EDF queue. The
// storage is retained across operations, so the steady state performs zero
// heap allocations (pinned by TestAdmitQueueZeroAllocs).
func BenchmarkClusterAdmit(b *testing.B) {
	var h admitHeap
	r := request.New(1, 100, 10, 64, 0)
	for i := 0; i < 1024; i++ {
		h.push(admitItem{r: r, deadline: float64(i % 97), seq: int64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := h.pop()
		it.deadline = float64(i % 89)
		it.seq = int64(i)
		h.push(it)
	}
}
