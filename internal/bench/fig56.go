package bench

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/request"
)

// Fig5Result reports the paper's Figure 5 example: the same queued request
// admitted at t vs t+1 yields different batch peak memory.
type Fig5Result struct {
	PeakAtT  int // scheduling the newcomer at time t
	PeakAtT1 int // scheduling it one decode step later
}

// RunFigure5 recomputes the Figure 5 example with the estimator:
// running requests A (current 5, remaining 2) and B (current 5, remaining
// 4), newcomer Q (input 3, output 3). Admitting Q at t peaks at 19 tokens;
// waiting one step lowers the peak to 18.
func RunFigure5(opts Options) *Fig5Result {
	opts = opts.normalized()
	atT := []core.Entry{
		{Current: 5, Remaining: 2},
		{Current: 5, Remaining: 4},
		{Current: 3, Remaining: 3},
	}
	atT1 := []core.Entry{
		{Current: 6, Remaining: 1},
		{Current: 6, Remaining: 3},
		{Current: 3, Remaining: 3},
	}
	res := &Fig5Result{
		PeakAtT:  core.FutureRequiredMemory(atT),
		PeakAtT1: core.FutureRequiredMemory(atT1),
	}
	tbl := &Table{
		Title:  "Figure 5: peak memory of admitting the same request at t vs t+1",
		Header: []string{"Admission time", "Peak memory (tokens)"},
	}
	tbl.Add("t", itoa(res.PeakAtT))
	tbl.Add("t+1", itoa(res.PeakAtT1))
	tbl.Fprint(opts.Out)
	return res
}

// Fig6Result reports when each scheduler family admits the Figure 6 toy
// request on the 21-token system, and whether that admission overcommits
// the future (guaranteeing an eviction).
type Fig6Result struct {
	// AdmitStep is the first step (0 = t, 1 = t+1, …) at which the
	// scheduler admits the queued request; -1 if never within horizon.
	AdmitStep map[string]int
	// Overcommits reports whether the admission's ground-truth future peak
	// exceeds capacity.
	Overcommits map[string]bool
}

// RunFigure6 replays the paper's Figure 6 scenario (capacity 21 tokens):
// the aggressive scheduler admits at t and later forces an eviction, the
// conservative scheduler waits until a request completes (t+2), and the
// future-aware scheduler admits at exactly t+1 with no eviction.
func RunFigure6(opts Options) *Fig6Result {
	opts = opts.normalized()
	const capacity = 21
	res := &Fig6Result{AdmitStep: map[string]int{}, Overcommits: map[string]bool{}}

	type sched struct {
		label string
		s     core.Scheduler
	}
	scheds := []sched{
		{"aggressive", core.MustNewAggressive(1.0)},
		{"conservative", core.MustNewConservative(1.0)},
		{"looking-to-future", core.NewOracle()},
	}
	for _, sd := range scheds {
		step, over := fig6AdmitStep(sd.s, capacity)
		res.AdmitStep[sd.label] = step
		res.Overcommits[sd.label] = over
	}

	tbl := &Table{
		Title:  "Figure 6: when each scheduler admits the new request (capacity 21)",
		Header: []string{"Scheduler", "Admits at", "Overcommits future"},
	}
	for _, name := range []string{"conservative", "aggressive", "looking-to-future"} {
		at := "never"
		if s := res.AdmitStep[name]; s >= 0 {
			at = fmt.Sprintf("t+%d", s)
		}
		tbl.Add(name, at, fmt.Sprintf("%v", res.Overcommits[name]))
	}
	tbl.Fprint(opts.Out)
	return res
}

// fig6State reconstructs the Figure 6 batch after `step` decode steps past
// time t: R1 (input 4, output 4, 2 generated at t), R2 (input 3, output 7,
// 3 generated at t), and queued Q (input 4, output 3). R1 completes at t+2
// and leaves the batch.
func fig6State(step int) (running []*request.Request, queue []*request.Request) {
	r1 := request.New(1, 4, 4, 4, 0)
	r2 := request.New(2, 3, 7, 7, 0)
	emit := func(r *request.Request, n int) {
		if n > r.TrueOutputLen {
			n = r.TrueOutputLen
		}
		for i := 0; i < n; i++ {
			r.EmitToken(float64(i))
		}
	}
	emit(r1, 2+step)
	emit(r2, 3+step)
	if !r1.Done() {
		running = append(running, r1)
	}
	if !r2.Done() {
		running = append(running, r2)
	}
	q := request.New(3, 4, 3, 3, 0)
	return running, []*request.Request{q}
}

// fig6AdmitStep advances the Figure 6 batch step by step, asking the
// scheduler at each step whether it admits the queued request.
func fig6AdmitStep(s core.Scheduler, capacity int) (step int, overcommits bool) {
	for step = 0; step <= 4; step++ {
		running, q := fig6State(step)
		used := 0
		for _, r := range running {
			used += r.Footprint()
		}
		v := &core.View{
			CapacityTokens: capacity,
			UsedTokens:     used,
			FreeTokens:     capacity - used,
			Running:        running,
		}
		if s.Admit(v, q) > 0 {
			batch := append(running, q[0])
			return step, core.TrueFutureRequiredMemory(batch) > capacity
		}
	}
	return -1, false
}
