package workload

import (
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// AssignPoissonArrivals overwrites the requests' arrival times with a
// Poisson process of the given rate (requests per second), starting at
// startTime. Open-loop load generation.
func AssignPoissonArrivals(reqs []*request.Request, r *rng.RNG, ratePerSec, startTime float64) {
	if ratePerSec <= 0 {
		panic("workload: non-positive arrival rate")
	}
	t := startTime
	for _, req := range reqs {
		t += r.Exp(1 / ratePerSec)
		req.ArrivalTime = t
	}
}

// RatePhase is one segment of a piecewise arrival process.
type RatePhase struct {
	// Rate is the Poisson arrival rate (requests/second) during the phase.
	Rate float64
	// Duration is the phase length in seconds.
	Duration float64
}

// Ramp expands a linear rate climb from lo to hi over dur seconds into
// steps equal phases — the "building burst" shape that separates
// trend-following autoscalers from threshold-reactive ones.
func Ramp(lo, hi, dur float64, steps int) []RatePhase {
	if steps < 1 {
		steps = 1
	}
	phases := make([]RatePhase, steps)
	for i := range phases {
		frac := float64(i+1) / float64(steps+1)
		phases[i] = RatePhase{Rate: lo + (hi-lo)*frac, Duration: dur / float64(steps)}
	}
	return phases
}

// AssignPhasedArrivals overwrites the requests' arrival times with a
// piecewise Poisson process: each phase draws arrivals at its own rate
// until its duration elapses, then the next phase begins. Requests beyond
// the phases' total capacity keep arriving at the last phase's rate.
// Returns the end time of the last phase.
func AssignPhasedArrivals(reqs []*request.Request, r *rng.RNG, phases []RatePhase, startTime float64) float64 {
	if len(phases) == 0 {
		panic("workload: no arrival phases")
	}
	t := startTime
	end := startTime
	for _, ph := range phases {
		end += ph.Duration
	}
	i := 0
	phaseEnd := startTime + phases[0].Duration
	for _, req := range reqs {
		for t >= phaseEnd && i < len(phases)-1 {
			i++
			phaseEnd += phases[i].Duration
		}
		if phases[i].Rate <= 0 {
			panic("workload: non-positive arrival rate")
		}
		t += r.Exp(1 / phases[i].Rate)
		req.ArrivalTime = t
	}
	return end
}

// PhasedCount returns how many requests a phased process expects
// (Σ rate×duration), the natural population size for Build.
func PhasedCount(phases []RatePhase) int {
	n := 0.0
	for _, ph := range phases {
		n += ph.Rate * ph.Duration
	}
	return int(n)
}

// ClosedLoop simulates N concurrent clients, the load model of Figures 7
// and 9: each client submits a request, waits for it to complete, and
// immediately (plus optional think time) submits the next, until the
// deadline. System concurrency is therefore bounded by the client count.
type ClosedLoop struct {
	eng      *engine.Engine
	gen      Generator
	r        *rng.RNG
	maxNew   int
	think    float64
	deadline float64

	nextID    int64
	submitted int
}

// NewClosedLoop attaches a closed-loop driver to the engine. Start must be
// called before the engine runs. maxNew caps every request's output;
// deadline is the absolute simulated time after which clients stop.
func NewClosedLoop(eng *engine.Engine, gen Generator, r *rng.RNG, clients, maxNew int, think, deadline float64) *ClosedLoop {
	if clients <= 0 {
		panic("workload: non-positive client count")
	}
	cl := &ClosedLoop{
		eng: eng, gen: gen, r: r,
		maxNew: maxNew, think: think, deadline: deadline,
		nextID: 1,
	}
	// A client issues its next request a think time after the last one
	// completes or, SLA-aware, abandons the queue (queue timeout).
	eng.AddExitHook(func(now float64, req *request.Request) {
		if req.Outcome != request.OutcomeCompleted && req.Outcome != request.OutcomeDropped {
			return
		}
		if next := now + cl.think; next < cl.deadline {
			cl.submit(req.ClientID, next)
		}
	})
	// Seed one in-flight request per client at t=0.
	for c := 0; c < clients; c++ {
		cl.submit(c, 0)
	}
	return cl
}

// Submitted returns the number of requests injected so far.
func (cl *ClosedLoop) Submitted() int { return cl.submitted }

func (cl *ClosedLoop) submit(client int, at float64) {
	in, out := cl.gen.Sample(cl.r)
	req := request.New(cl.nextID, in, out, cl.maxNew, at)
	req.ClientID = client
	req.Class = cl.gen.Name()
	cl.nextID++
	cl.submitted++
	cl.eng.Submit(req)
}
