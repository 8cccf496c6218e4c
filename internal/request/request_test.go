package request

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestRequestFitsSizeClass: every request is one heap object, allocated per
// arrival, so its size class is paid on every workload. At 256 bytes it sits
// exactly in Go's 256-byte class; one field more (or a bool placed where it
// pads a word) makes it a 288-byte object, 12% more memory per request. A
// field that has to cross the class is a deliberate choice: raise the
// ceiling here with the reason.
func TestRequestFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size > 256 {
		t.Fatalf("request.Request is %d bytes, over the 256-byte size class", size)
	}
}

func TestNewClampsOutputLen(t *testing.T) {
	r := New(1, 100, 5000, 2048, 0)
	if r.TrueOutputLen != 2048 {
		t.Fatalf("output not clamped to max_new_tokens: %d", r.TrueOutputLen)
	}
	r2 := New(2, 100, 0, 2048, 0)
	if r2.TrueOutputLen != 1 {
		t.Fatalf("output not clamped up to 1: %d", r2.TrueOutputLen)
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	for _, c := range []struct{ in, max int }{{0, 10}, {-5, 10}, {10, 0}} {
		func() {
			defer func() { _ = recover() }()
			New(1, c.in, 5, c.max, 0)
			t.Fatalf("New(in=%d,max=%d) did not panic", c.in, c.max)
		}()
	}
}

func TestFootprintGrowsWithGeneration(t *testing.T) {
	r := New(1, 50, 3, 10, 0)
	if r.Footprint() != 50 {
		t.Fatalf("initial footprint = %d", r.Footprint())
	}
	r.EmitToken(1.0)
	if r.Footprint() != 51 {
		t.Fatalf("footprint after one token = %d", r.Footprint())
	}
}

func TestTTFTAndGaps(t *testing.T) {
	r := New(1, 10, 3, 10, 5.0) // arrives at t=5
	r.EmitToken(7.0)            // first token: TTFT = 2
	r.EmitToken(7.5)            // gap 0.5
	r.EmitToken(9.0)            // gap 1.5
	if got := r.TTFT(); got != 2.0 {
		t.Fatalf("TTFT = %v", got)
	}
	if got := r.MTPOT(); got != 1.5 {
		t.Fatalf("MTPOT = %v", got)
	}
	if got := r.TPOT(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("TPOT = %v, want 1.0", got)
	}
}

// TestStampMatchesEmitToken: tokens counted into Generated by hand and
// stamped once with their largest gap leave a request as one EmitToken per
// token does — the first stamp sets FirstTokenAt and ignores its gap.
func TestStampMatchesEmitToken(t *testing.T) {
	ref := New(1, 10, 5, 10, 5.0)
	for _, at := range []float64{7.0, 7.5, 9.0, 9.25} {
		ref.EmitToken(at)
	}
	r := New(1, 10, 5, 10, 5.0)
	r.Stamp(7.0, 99) // the first token: no gap
	r.Generated += 4
	r.Stamp(9.25, 1.5) // the gaps 0.5, 1.5 and 0.25, settled at once
	if !reflect.DeepEqual(r, ref) {
		t.Fatalf("stamped %+v, emitted %+v", *r, *ref)
	}
}

func TestTTFTUnsetIsMinusOne(t *testing.T) {
	r := New(1, 10, 3, 10, 0)
	if r.TTFT() != -1 {
		t.Fatal("TTFT before first token should be -1")
	}
}

func TestSingleTokenRequestMetrics(t *testing.T) {
	r := New(1, 10, 1, 10, 0)
	r.EmitToken(0.3)
	if !r.Done() {
		t.Fatal("single-token request should be done")
	}
	if r.MTPOT() != 0 || r.TPOT() != 0 {
		t.Fatal("single-token gaps should be 0")
	}
}

func TestEmitPastCompletionPanics(t *testing.T) {
	r := New(1, 10, 1, 10, 0)
	r.EmitToken(0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("emit past completion did not panic")
		}
	}()
	r.EmitToken(0.2)
}

func TestFinishLifecycle(t *testing.T) {
	r := New(1, 10, 2, 10, 1.0)
	r.EmitToken(2.0)
	r.EmitToken(3.0)
	r.Finish(3.0)
	if r.Outcome != OutcomeCompleted || r.EndedAt != 3.0 {
		t.Fatalf("outcome %v at %v", r.Outcome, r.EndedAt)
	}
	if got := r.Latency(); got != 2.0 {
		t.Fatalf("latency = %v", got)
	}
}

func TestFinishEarlyPanics(t *testing.T) {
	r := New(1, 10, 5, 10, 0)
	r.EmitToken(1)
	defer func() {
		if recover() == nil {
			t.Fatal("early finish did not panic")
		}
	}()
	r.Finish(1)
}

func TestLatencyBeforeFinish(t *testing.T) {
	r := New(1, 10, 2, 10, 0)
	if r.Latency() != -1 {
		t.Fatal("latency before finish should be -1")
	}
}

func TestEvictionGapCountsTowardMTPOT(t *testing.T) {
	// A request evicted after its second token resumes much later; the gap
	// across the eviction must be its MTPOT.
	r := New(1, 10, 3, 10, 0)
	r.EmitToken(1.0)
	r.EmitToken(1.05)
	// evicted here; resumes 4 seconds later
	r.EmitToken(5.05)
	if got := r.MTPOT(); math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("MTPOT across eviction = %v, want 4.0", got)
	}
}

func TestRequestString(t *testing.T) {
	r := New(7, 10, 3, 10, 0)
	s := r.String()
	if !strings.Contains(s, "req(7") || !strings.Contains(s, "in=10") {
		t.Fatalf("String() = %q", s)
	}
}

func TestRemainingTrue(t *testing.T) {
	r := New(1, 10, 5, 10, 0)
	r.EmitToken(1)
	r.EmitToken(2)
	if r.RemainingTrue() != 3 {
		t.Fatalf("remaining = %d", r.RemainingTrue())
	}
}

func TestOutcomeTerminalExactlyOnce(t *testing.T) {
	// Completion is a terminal outcome.
	r := New(1, 10, 1, 10, 0)
	if r.Outcome != OutcomePending || r.EndedAt != -1 {
		t.Fatalf("new request outcome %v at %v, want pending at -1", r.Outcome, r.EndedAt)
	}
	r.EmitToken(1)
	r.Finish(1)
	if r.Outcome != OutcomeCompleted || r.EndedAt != 1 {
		t.Fatalf("finished request outcome %v at %v", r.Outcome, r.EndedAt)
	}
	mustPanic(t, "shed after completion", func() { r.Shed(2) })

	// Shedding is terminal and excludes every other ending.
	s := New(2, 10, 4, 10, 0)
	s.TTFTDeadline = 8
	s.Shed(3)
	if s.Outcome != OutcomeShed || s.EndedAt != 3 {
		t.Fatalf("shed request outcome %v at %v", s.Outcome, s.EndedAt)
	}
	mustPanic(t, "double shed", func() { s.Shed(4) })
	mustPanic(t, "drop after shed", func() { s.MarkDropped(4) })
	mustPanic(t, "fail after shed", func() { s.MarkFailed(4) })

	d := New(3, 10, 4, 10, 0)
	d.MarkDropped(5)
	if d.Outcome != OutcomeDropped || d.EndedAt != 5 {
		t.Fatalf("dropped request outcome %v at %v", d.Outcome, d.EndedAt)
	}

	f := New(4, 10, 4, 10, 0)
	f.MarkFailed(6)
	if f.Outcome != OutcomeFailed || f.EndedAt != 6 {
		t.Fatalf("failed request outcome %v at %v", f.Outcome, f.EndedAt)
	}
	mustPanic(t, "drop after failure", func() { f.MarkDropped(7) })
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomePending: "pending", OutcomeCompleted: "completed",
		OutcomeShed: "shed", OutcomeDropped: "dropped", OutcomeFailed: "failed",
	} {
		if o.String() != want {
			t.Fatalf("outcome %d string %q, want %q", int(o), o.String(), want)
		}
	}
	if !strings.HasPrefix(Outcome(99).String(), "outcome(") {
		t.Fatal("unknown outcome string wrong")
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}
