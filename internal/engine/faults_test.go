package engine

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/request"
)

// TestCrashEvacuatesEverything: a crash mid-run returns every request the
// engine holds — running, queued, and future arrivals — leaves the KV pool
// empty, and the engine idle. No exit hook fires: the cluster layer decides
// the orphans' fate.
func TestCrashEvacuatesEverything(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 4000)
	var hooks int
	e.AddExitHook(func(float64, *request.Request) { hooks++ })

	// Enough work that some is running, some queued, and one arrival is
	// still in the future when the crash lands.
	reqs := mkReqs(12, 400, 50, 100)
	e.SubmitAll(reqs)
	late := request.New(99, 100, 10, 50, 1e6) // arrival far beyond the crash
	e.Submit(late)
	for i := 0; i < 5 && e.Step(); i++ {
	}
	if e.Idle() {
		t.Fatal("engine drained before the crash; scenario exercises nothing")
	}

	orphans := e.Crash()
	if len(orphans) != 13 {
		t.Fatalf("crash returned %d orphans, want 13", len(orphans))
	}
	seen := map[int64]bool{}
	for _, r := range orphans {
		if seen[r.ID] {
			t.Fatalf("request %d evacuated twice", r.ID)
		}
		seen[r.ID] = true
		if r.Outcome != request.OutcomePending {
			t.Fatalf("orphan %d outcome %v, want pending", r.ID, r.Outcome)
		}
	}
	if !seen[late.ID] {
		t.Fatal("future arrival not evacuated")
	}
	if !e.Idle() {
		t.Fatal("engine not idle after crash")
	}
	if e.LastStep() != StepOther || e.ReleasedLastStep() {
		t.Fatalf("after Crash: last step %v, released %v; both describe a batch that is gone",
			e.LastStep(), e.ReleasedLastStep())
	}
	if used := e.Pool().UsedTokens(); used != 0 {
		t.Fatalf("crashed engine leaked %d KV tokens", used)
	}
	if err := e.Pool().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if hooks != 0 {
		t.Fatalf("%d hooks fired during crash, want 0", hooks)
	}

	// The evacuated requests re-run cleanly after ResetForRetry — the
	// recovery path's contract.
	e2 := newEngine(t, core.NewOracle(), 8000)
	for _, r := range orphans {
		r.ResetForRetry()
		e2.SubmitAt(r, e.Clock())
	}
	res := e2.Run()
	if len(res.Finished) != len(orphans) {
		t.Fatalf("re-run finished %d of %d orphans", len(res.Finished), len(orphans))
	}
	for _, r := range res.Finished {
		if r.Retries != 1 {
			t.Fatalf("request %d retries %d, want 1", r.ID, r.Retries)
		}
	}
}

// TestCrashFreesFinishedStaticLanes: a static lane keeps its finished
// request allocated until the whole batch drains. A crash in between frees
// every lane but returns only the pending requests: a completed one is no
// orphan, and handing it to the recovery path would retry a terminal
// outcome.
func TestCrashFreesFinishedStaticLanes(t *testing.T) {
	e := newStaticEngine(t)
	short := request.New(1, 50, 2, 20, 0)
	long := request.New(2, 50, 10, 20, 0)
	e.SubmitAll([]*request.Request{short, long})
	for short.Outcome == request.OutcomePending {
		if !e.Step() {
			t.Fatal("engine drained before the short lane finished")
		}
	}
	if long.Outcome != request.OutcomePending {
		t.Fatal("long lane finished with the short one; the scenario exercises nothing")
	}
	orphans := e.Crash()
	if len(orphans) != 1 || orphans[0] != long {
		t.Fatalf("crash returned %d orphans, want the long lane alone", len(orphans))
	}
	if used := e.Pool().UsedTokens(); used != 0 {
		t.Fatalf("crashed engine leaked %d KV tokens", used)
	}
	if err := e.Pool().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !e.Idle() {
		t.Fatal("engine not idle after crash")
	}
	for _, r := range orphans {
		r.ResetForRetry()
	}
}

// TestCrashEvacuatesEverythingMidCoast: ReleasedLastStep and LastStep
// describe the batch of the Step before the crash, and the second gates the
// O(1) decode step. A crash in the middle of a run of such steps hands the
// orphans every token the engine counted for them, clears both flags, and the
// recovered engine starts over: an idle jump and a prefill take the per-token
// path, and the prefill's newcomers take their first token on a coasted step.
func TestCrashEvacuatesEverythingMidCoast(t *testing.T) {
	e := newEngine(t, core.MustNewConservative(1.0), 20_000)
	reqs := mkReqs(8, 100, 200, 256)
	e.SubmitAll(reqs)
	for i := 0; i < 40; i++ {
		e.Step()
	}
	if res := e.Snapshot(); e.LastStep() != StepPureDecode || res.CoastedSteps == 0 {
		t.Fatalf("crash lands outside a run of coasted steps (%d coasted); the scenario exercises nothing", res.CoastedSteps)
	}
	for i := 0; i < 7; i++ {
		e.Step() // nothing settles: seven tokens are owed at the crash
	}
	orphans := e.Crash()
	if e.LastStep() != StepOther || e.ReleasedLastStep() {
		t.Fatalf("after Crash: last step %v, released %v; both describe a batch that is gone",
			e.LastStep(), e.ReleasedLastStep())
	}
	for _, r := range orphans {
		// The prefill iteration emits nothing; every decode step one token.
		if want := e.Snapshot().DecodeSteps; r.Generated != want {
			t.Fatalf("orphan %d carries %d tokens, the engine counted %d", r.ID, r.Generated, want)
		}
	}

	e.SyncClock(e.Clock() + 1)
	for _, r := range orphans {
		r.ResetForRetry()
		e.SubmitAt(r, e.Clock()+0.5)
	}
	coasted := e.Snapshot().CoastedSteps
	for i, want := range []string{"idle", "prefill"} {
		clock, steps := e.Clock(), e.Snapshot().DecodeSteps
		e.Step()
		res := e.Snapshot()
		if res.CoastedSteps != coasted {
			t.Fatalf("step %d after recovery (%s) coasted", i, want)
		}
		if want == "idle" && (e.Clock() != clock+0.5 || res.DecodeSteps != steps) {
			t.Fatalf("step %d after recovery: clock %v → %v, decode steps %d → %d; want the jump to the arrivals",
				i, clock, e.Clock(), steps, res.DecodeSteps)
		}
	}
	e.Step()
	if res := e.Snapshot(); res.CoastedSteps != coasted+1 {
		t.Fatalf("first decode step after recovery: %d coasted steps, want %d", res.CoastedSteps, coasted+1)
	}
	for _, r := range orphans {
		if r.Generated != 1 || r.FirstTokenAt != e.Clock() {
			t.Fatalf("request %d after the first decode step: %d tokens, first at %v; want 1 at %v",
				r.ID, r.Generated, r.FirstTokenAt, e.Clock())
		}
	}
	if res := e.Run(); len(res.Finished) != len(reqs) {
		t.Fatalf("finished %d of %d after recovery", len(res.Finished), len(reqs))
	}
}

// TestSlowFactorScalesServiceTime: a degraded engine takes exactly factor×
// the simulated time of a healthy one over the same workload, and clearing
// the factor restores the healthy timing. Factor 1 is the bit-exact
// zero-cost default.
func TestSlowFactorScalesServiceTime(t *testing.T) {
	run := func(factor float64) float64 {
		e := newEngine(t, core.NewOracle(), 4000)
		if factor != 1 {
			e.SetSlowFactor(factor)
		}
		e.SubmitAll(mkReqs(6, 300, 40, 100))
		e.Run()
		return e.Clock()
	}
	healthy := run(1)
	slowed := run(1.5)
	if want := healthy * 1.5; !almostEq(slowed, want) {
		t.Fatalf("slowed run took %v, want exactly 1.5× healthy %v = %v", slowed, healthy, want)
	}

	e := newEngine(t, core.NewOracle(), 4000)
	e.SetSlowFactor(2)
	e.SetSlowFactor(1)
	e.SubmitAll(mkReqs(6, 300, 40, 100))
	e.Run()
	if !almostEq(e.Clock(), healthy) {
		t.Fatalf("cleared slowdown run took %v, want healthy %v", e.Clock(), healthy)
	}
}

func TestSetSlowFactorRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive slow factor accepted")
		}
	}()
	newEngine(t, core.NewOracle(), 1000).SetSlowFactor(0)
}

// TestSyncClockOnlyAdvances: recovery must never rewind a repaired engine.
func TestSyncClockOnlyAdvances(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 1000)
	e.SyncClock(5)
	if e.Clock() != 5 {
		t.Fatalf("clock %v after sync to 5", e.Clock())
	}
	e.SyncClock(3)
	if e.Clock() != 5 {
		t.Fatalf("clock %v, SyncClock rewound it", e.Clock())
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
