package cluster

import (
	"math"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/request"
)

// The reference implementations the warm paths are held to. None of them is
// reachable from a configuration: each is the straightforward computation a
// faster production path must reproduce decision for decision.

// naiveProbe is Pool.probe the way the original router computed it: one
// core.PredictedBatchPeak — a fresh estimator, every entry re-predicted, one
// sort — over the replica's running batch, its waiting set and the
// candidate, as a fraction of the replica's capacity.
func naiveProbe(p *Pool, rep *replica, req *request.Request) float64 {
	batch := append(rep.eng.RunningRequests(), rep.eng.WaitingRequests()...)
	batch = append(batch, req)
	return float64(core.PredictedBatchPeak(batch, rep.eng.History(), probeQuantile)) / float64(rep.eng.Pool().CapacityTokens())
}

// naiveLoad is Pool.load by the same reference: the batch and the waiting
// set, no candidate.
func naiveLoad(p *Pool, rep *replica) float64 {
	batch := append(rep.eng.RunningRequests(), rep.eng.WaitingRequests()...)
	return float64(core.PredictedBatchPeak(batch, rep.eng.History(), probeQuantile)) / float64(rep.eng.Pool().CapacityTokens())
}

// naiveProbes is naiveProbe of every accepting replica, indexed by replica:
// what each would answer if rebuilt now.
func naiveProbes(p *Pool, req *request.Request) []float64 {
	ref := make([]float64, len(p.reps))
	for _, rep := range p.accepting {
		ref[rep.idx] = naiveProbe(p, rep, req)
	}
	return ref
}

// bruteBestProbe is bestProbe as a plain sweep over the reference probes.
func bruteBestProbe(p *Pool, req *request.Request, gate float64, ref []float64) (*replica, float64) {
	var bestRep *replica
	bestFits, bestScore, minFrac := false, math.Inf(1), math.Inf(1)
	for _, rep := range p.accepting {
		f := ref[rep.idx]
		minFrac = min(minFrac, f)
		if f > gate {
			continue
		}
		fits, score := f <= 1, f/rep.flv.relSpeed-p.affinity(rep, req)
		if bestRep == nil || betterFit(fits, score, bestFits, bestScore) {
			bestRep, bestFits, bestScore = rep, fits, score
		}
	}
	return bestRep, minFrac
}

// fullBestProbe is bestProbe without the floors: a sweep over the probe
// bound of every accepting replica in index order, repeated until the
// replicas it ends on are settled.
func fullBestProbe(p *Pool, req *request.Request, gate float64) (*replica, float64) {
	for {
		var bestRep, minRep *replica
		bestFits, bestScore, minFrac := false, math.Inf(1), math.Inf(1)
		bestFrac, bestExact, minExact := 0.0, true, true
		for _, rep := range p.accepting {
			f, exact := p.probeBound(rep, req)
			if f < minFrac || (f == minFrac && exact && !minExact) {
				minRep, minFrac, minExact = rep, f, exact
			}
			if f > gate {
				continue
			}
			fits := f <= 1
			score := f/rep.flv.relSpeed - p.affinity(rep, req)
			if bestRep == nil || betterFit(fits, score, bestFits, bestScore) {
				bestRep, bestFits, bestScore, bestFrac, bestExact = rep, fits, score, f, exact
			}
		}
		ok := p.settled(bestRep, req, bestFrac, bestExact)
		if minRep != bestRep {
			ok = p.settled(minRep, req, minFrac, minExact) && ok
		}
		if ok {
			return bestRep, minFrac
		}
	}
}

// naivePick is the FutureHeadroom pick over the reference probes: nil when
// no replica accepts.
func naivePick(p *Pool, req *request.Request) *replica {
	rep, _ := bruteBestProbe(p, req, math.Inf(1), naiveProbes(p, req))
	return rep
}

// scalarTarget is the planner's sizing rule from before pools had flavors:
// the minimum replica count whose interpolated latency meets the
// (correction-tightened) SLA at the given utilization target, every replica
// assumed to be flavor f; Max when f cannot meet the SLA at this shape. It
// also returns the operating point whose predicted latencies the correction
// factors compare against.
func scalarTarget(p *planner, f *flavor, headroom, rate, isl, osl float64) (int, flavorThr) {
	op := p.flavorThroughput(f, isl, osl)
	if op.thr <= 0 {
		return p.cfg.Max, op
	}
	n := int(math.Ceil(rate / (op.thr * headroom)))
	return min(max(n, p.cfg.Min), p.cfg.Max), op
}

// refHeadroom is the speed-aware utilization target from its definition:
// the fastest flavor reserves W = t_fast·H/(1−H) of slack per unit of
// service, and a flavor with service time t = 1/thr reserves the same W, so
// its target is W/(W+t). With speed awareness off, for the fastest flavor,
// or at H = 1, it is H itself.
func refHeadroom(cfg PlannerConfig, thr, fastest float64) float64 {
	h := cfg.Headroom
	if !cfg.SpeedAware || thr >= fastest || h >= 1 {
		return h
	}
	w := (1 / fastest) * h / (1 - h)
	return w / (w + 1/thr)
}
