package workload

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/rng"
)

// TestStreamMatchesBuild pins the Stream contract: drained fully, it
// produces exactly what the materialized Build + AssignPhasedArrivals path
// produces — IDs, lengths, classes, caps, and arrival times.
func TestStreamMatchesBuild(t *testing.T) {
	gen := Mixed{Label: "day", Parts: []Generator{ShareGPT, ShareGPTO1, Distribution1}, Weights: []float64{3, 1, 1}}
	phases := []RatePhase{{Rate: 40, Duration: 10}, {Rate: 120, Duration: 5}, {Rate: 60, Duration: 10}}

	n := PhasedCount(phases)
	want := Build(gen, rng.New(11), n, 100, 256)
	end := AssignPhasedArrivals(want, rng.New(22), phases, 0)

	s := NewStream(StreamConfig{
		Gen: gen, Lengths: rng.New(11), Arrivals: rng.New(22),
		Phases: phases, FirstID: 100, MaxNew: 256,
	})
	if s.Total() != n {
		t.Fatalf("Total() = %d, PhasedCount = %d", s.Total(), n)
	}
	if s.End() != end {
		t.Fatalf("End() = %v, AssignPhasedArrivals returned %v", s.End(), end)
	}
	for i, w := range want {
		g := s.Next()
		if g == nil {
			t.Fatalf("stream ended at %d of %d", i, n)
		}
		if g.ID != w.ID || g.InputLen != w.InputLen || g.TrueOutputLen != w.TrueOutputLen ||
			g.ArrivalTime != w.ArrivalTime || g.Class != w.Class {
			t.Fatalf("request %d differs:\nstream: %+v\nbuild:  %+v", i, g, w)
		}
	}
	if g := s.Next(); g != nil {
		t.Fatalf("stream kept producing past N: %+v", g)
	}
	if g := s.Next(); g != nil { // stays drained
		t.Fatalf("drained stream revived: %+v", g)
	}
	if s.Produced() != n {
		t.Fatalf("Produced() = %d, want %d", s.Produced(), n)
	}
}

// TestStreamOrdering: arrival times are nondecreasing (the ServeStream
// contract) across a drifting multi-phase process.
func TestStreamOrdering(t *testing.T) {
	s := NewStream(StreamConfig{
		Gen: ShareGPT, Lengths: rng.New(3), Arrivals: rng.New(4),
		Phases: Ramp(10, 200, 30, 6), N: 2000, MaxNew: 512,
	})
	prev := -1.0
	for r := s.Next(); r != nil; r = s.Next() {
		if r.ArrivalTime < prev {
			t.Fatalf("arrival times regressed: %v after %v", r.ArrivalTime, prev)
		}
		prev = r.ArrivalTime
	}
	if s.Produced() != 2000 {
		t.Fatalf("Produced() = %d, want 2000", s.Produced())
	}
}
