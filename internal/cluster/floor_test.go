package cluster

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// floorCase is one served fleet of the floor tests: the cluster, its stream,
// and the candidates priced between events.
type floorCase struct {
	name  string
	build func(seed uint64) (c *Cluster, reqs, cands []*request.Request)
}

// floorCases are the lagged-bound scenarios, plus a heterogeneous mixed pool
// with prefix caching, affinity routing and an admission gate, serving
// multi-turn sessions: the one place a sweep compares scores that are not
// fractions.
func floorCases() []floorCase {
	var out []floorCase
	for _, sc := range lagScenarios {
		sc := sc
		out = append(out, floorCase{sc.name, func(seed uint64) (*Cluster, []*request.Request, []*request.Request) {
			r := rng.New(seed + 50)
			reqs := workload.Build(workload.ShareGPT, r, 110, 1, sc.maxNew)
			workload.AssignPoissonArrivals(reqs, r, sc.rate, 0)
			return sc.build(seed, sc.maxNew), reqs, lagCandidates(sc.maxNew)
		}})
	}
	return append(out, floorCase{"hetero-affinity-gate", affinityFleet})
}

// affinityFleet is floorCases' heterogeneous case: two A100 and two H800
// replicas with prefix caches, interleaved in index order, behind affinity
// routing and the admission gate.
func affinityFleet(seed uint64) (*Cluster, []*request.Request, []*request.Request) {
	reps := make([]*engine.Engine, 4)
	for i := range reps {
		pm := testPerf()
		if i%2 == 1 {
			pm = perfFor(hw.H800)
		}
		reps[i] = engine.MustNew(engine.Config{
			Perf: pm,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(seed + uint64(i)),
			}),
			CapacityOverride: 9_000,
			PrefixCache:      engine.PrefixCacheConfig{Enabled: true, BlockTokens: 64},
		})
	}
	c := MustNewCluster(ClusterConfig{
		Pools:     []Config{{Replicas: reps, Policy: FutureHeadroom, AffinityWeight: 0.5}},
		Admission: &AdmissionConfig{TTFTBudget: 6, Shed: true, Slack: 0.5},
	})
	reqs := sessionReqs(workload.ShareGPT, 200, 40, seed)
	cands := lagCandidates(512)
	for _, src := range reqs[len(reqs)-3:] {
		hashed := request.New(src.ID+1_000_000, src.InputLen, 100, 512, 0)
		hashed.PrefixHashes = src.PrefixHashes
		cands = append(cands, hashed)
	}
	return c, reqs, cands
}

// floorTally counts what the soundness checks met, so that a run which never
// lagged a floor or never tightened one by its candidate fails.
type floorTally struct{ floored, lagged, tightened int }

// checkFloors runs between two events. byFloor must hold exactly the
// accepting replicas, in (key, idx) order, each under the key its estimator
// gives it. Every valid estimator's floor — plain, and for each candidate —
// must be at most the replica's reference probe, and the candidate's floor
// at most its probe bound too (read through a copy, so nothing is rebuilt).
func checkFloors(t *testing.T, c *Cluster, now float64, cands []*request.Request, tally *floorTally) {
	t.Helper()
	for _, p := range c.pools {
		if len(p.byFloor) != len(p.accepting) {
			t.Fatalf("t=%.4f pool %d: %d replicas by floor, %d accepting", now, p.id, len(p.byFloor), len(p.accepting))
		}
		for k, slot := range p.byFloor {
			rep := p.reps[slot.idx]
			if slot.key != rep.key || p.floorPos[rep.idx] != k || k > 0 && !p.byFloor[k-1].before(slot) || !rep.accepts() {
				t.Fatalf("t=%.4f pool %d: replica %d at %d (position %d) by floor under key %v, its key %v (accepting %v)",
					now, p.id, rep.idx, k, p.floorPos[rep.idx], slot.key, rep.key, rep.accepts())
			}
			if rep.estValid && rep.key != float64(rep.floor())/float64(rep.flv.capacity) || !rep.estValid && !slices.Contains(p.stale, rep.idx) {
				t.Fatalf("t=%.4f pool %d: replica %d under key %v, floor %d of %d (valid %v, stale %v)",
					now, p.id, rep.idx, rep.key, rep.floor(), rep.flv.capacity, rep.estValid, p.stale)
			}
			if rep.estValid && rep.eng.WaitingLen() > rep.static {
				t.Fatalf("t=%.4f pool %d: replica %d has %d waiting, its estimator %d static entries", now, p.id, rep.idx, rep.eng.WaitingLen(), rep.static)
			}
		}
		for _, rep := range p.accepting {
			if !rep.estValid {
				continue
			}
			tally.floored++
			if rep.lag > 0 {
				tally.lagged++
			}
			capacity := float64(rep.flv.capacity)
			for _, cand := range cands {
				ref := naiveProbe(p, rep, cand)
				warm := *rep
				e := p.entry(&warm, cand)
				bound, _ := p.boundOf(&warm, e)
				plain, with := float64(rep.floor())/capacity, float64(rep.floorWith(e))/capacity
				if plain > ref || with > bound || bound > ref {
					t.Fatalf("t=%.4f pool %d replica %d, candidate %d tokens in: floor %v, candidate floor %v, bound %v, reference %v (peak %d, lag %d, %d static)",
						now, p.id, rep.idx, cand.Generated, plain, with, bound, ref, rep.peak, rep.lag, rep.static)
				}
				if with > plain {
					tally.tightened++
				}
			}
		}
	}
}

// TestProbeFloorIsSound holds every floor the pruned sweep skips replicas by
// to the reference probe, after every event of the lagged-bound scenarios and
// of a heterogeneous affinity fleet behind an admission gate (checkFloors),
// and in the corner none of them reaches, where the floor clamps
// (floorClampCorner). Seeds follow CHAOS_SEEDS (make chaos).
func TestProbeFloorIsSound(t *testing.T) {
	t.Run("clamp-corner", floorClampCorner)
	for _, fc := range floorCases() {
		for _, seed := range chaosSeeds(t) {
			fc, seed := fc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", fc.name, seed), func(t *testing.T) {
				c, reqs, cands := fc.build(seed)
				var tally floorTally
				serveChecked(c, reqs, func(now float64) { checkFloors(t, c, now, cands, &tally) })
				if tally.floored == 0 || tally.lagged == 0 || tally.tightened == 0 {
					t.Fatalf("%+v: the run never met a lagging floor or one its candidate tightened", tally)
				}
			})
		}
	}
}

// holdScheduler admits the head of the queue only onto an empty batch: the
// rest of the queue waits, static, for as long as the batch runs.
type holdScheduler struct{}

func (holdScheduler) Name() string { return "hold" }

func (holdScheduler) Admit(v *core.View, queue []*request.Request) int {
	if len(v.Running) == 0 && len(queue) > 0 {
		return 1
	}
	return 0
}

// floorClampCorner pins the candidate floor where lag·static passes the
// estimator's peak: one request decoding past 200 tiny ones held in the
// queue. The bound clamps at 0 there, and a floor that added the candidate's
// Current − lag after its own clamp would overshoot the bound.
func floorClampCorner(t *testing.T) {
	p := mono(Config{Replicas: []*engine.Engine{engine.MustNew(engine.Config{
		Perf: testPerf(), Scheduler: holdScheduler{}, CapacityOverride: 100_000,
	})}, Policy: FutureHeadroom}).pools[0]
	rep := p.reps[0]
	rep.eng.Submit(request.New(1, 10, 100, 100, 0))
	for k := 0; k < 200; k++ {
		rep.eng.Submit(request.New(int64(2+k), 1, 1, 1, 0))
	}
	rep.eng.Step() // admits the long request
	rep.moved(rep.eng.LastStep())
	p.rebuild(rep)
	for k := 0; k < 15; k++ {
		rep.eng.Step()
		if rep.eng.LastStep() != engine.StepPureDecode {
			t.Fatalf("step %d was not a pure decode step", k)
		}
		rep.moved(rep.eng.LastStep())
	}
	if rep.lag != 15 || rep.static != 200 || rep.peak-rep.lag*rep.static >= 0 {
		t.Fatalf("peak %d, lag %d, %d static: the corner is not reached", rep.peak, rep.lag, rep.static)
	}
	cand := request.New(1_000, 500, 100, 100, 0)
	e := p.entry(rep, cand)
	if e.Remaining+rep.lag < rep.maxRem {
		t.Fatalf("candidate remaining %d + lag %d under the estimator's %d: the floor is not tightened", e.Remaining, rep.lag, rep.maxRem)
	}
	warm := *rep
	bound, _ := p.boundOf(&warm, e)
	ref := naiveProbe(p, rep, cand)
	with := float64(rep.floorWith(e)) / float64(rep.flv.capacity)
	if bound != 0 || with > bound || bound > ref || rep.floor() != 0 {
		t.Fatalf("candidate floor %v, bound %v, reference %v, floor %d", with, bound, ref, rep.floor())
	}
}

// serveArrivals is the sequential ServeStream loop with before called ahead
// of every arrival it handles.
func serveArrivals(c *Cluster, reqs []*request.Request, before func(now float64, r *request.Request)) {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].ArrivalTime < reqs[j].ArrivalTime })
	c.start(reqs[0].ArrivalTime)
	for _, r := range reqs {
		c.advanceTo(r.ArrivalTime)
		before(r.ArrivalTime, r)
		c.handleArrival(r.ArrivalTime, r)
	}
	c.advanceTo(1e9)
	c.finish(1e9)
}

// matchFullSweep compares the pruned bestProbe with the unpruned sweep
// (fullBestProbe) on every pool, at each gate.
func matchFullSweep(t *testing.T, c *Cluster, now float64, r *request.Request, gates []float64) {
	t.Helper()
	for _, p := range c.pools {
		for _, gate := range gates {
			gotRep, gotMin := p.bestProbe(r, gate)
			if wantRep, wantMin := fullBestProbe(p, r, gate); gotRep != wantRep || gotMin != wantMin {
				t.Fatalf("t=%.4f pool %d bestProbe(gate %v) of request %d: pruned (%v, %v), full sweep (%v, %v)",
					now, p.id, gate, r.ID, repIdx(gotRep), gotMin, repIdx(wantRep), wantMin)
			}
		}
	}
}

// TestPrunedSweepMatchesFullSweep holds the floor-ordered sweep to the sweep
// over every accepting replica, replica and minimum fraction, at every
// arrival of the floor cases, and then on a 96-replica fleet shaped like the
// replay-day benchmark, where it must price fewer than a quarter of the
// accepting replicas.
func TestPrunedSweepMatchesFullSweep(t *testing.T) {
	gates := []float64{math.Inf(1), 0.8, 0.35}
	for _, fc := range floorCases() {
		for _, seed := range chaosSeeds(t) {
			fc, seed := fc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", fc.name, seed), func(t *testing.T) {
				c, reqs, _ := fc.build(seed)
				serveArrivals(c, reqs, func(now float64, r *request.Request) { matchFullSweep(t, c, now, r, gates) })
			})
		}
	}
	t.Run("replay-day-96", func(t *testing.T) {
		c, reqs := dayFleet(1, 6_000)
		p := c.pools[0]
		var sweeps, reached, priced, accepting int
		serveArrivals(c, reqs, func(now float64, r *request.Request) {
			before := p.sweep
			gotRep, gotMin := p.bestProbe(r, math.Inf(1))
			sweeps += p.sweep.sweeps - before.sweeps
			reached += p.sweep.reached - before.reached
			priced += p.sweep.priced - before.priced
			accepting += len(p.accepting)
			if wantRep, wantMin := fullBestProbe(p, r, math.Inf(1)); gotRep != wantRep || gotMin != wantMin {
				t.Fatalf("t=%.4f request %d: pruned (%v, %v), full sweep (%v, %v)", now, r.ID, repIdx(gotRep), gotMin, repIdx(wantRep), wantMin)
			}
		})
		t.Logf("%d arrivals: %.1f replicas accepting, %.1f reached and %.1f priced per arrival",
			sweeps, float64(accepting)/float64(sweeps), float64(reached)/float64(sweeps), float64(priced)/float64(sweeps))
		if 4*priced >= accepting {
			t.Fatalf("priced %d of %d accepting replicas over %d arrivals: the floors prune less than three quarters", priced, accepting, sweeps)
		}
	})
}

// dayFleet is the replay-day benchmark's fleet and stream at a smaller
// count: 96 Past-Future replicas with 10 000 KV tokens each behind
// FutureHeadroom, and n requests of its three-part diurnal mix, capped at 150
// output tokens, arriving over its eight rate phases with a 1 000 req/s peak.
func dayFleet(seed uint64, n int) (*Cluster, []*request.Request) {
	engines := make([]*engine.Engine, 96)
	for i := range engines {
		engines[i] = engine.MustNew(engine.Config{
			Perf:             testPerf(),
			Scheduler:        core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(seed + uint64(i))}),
			CapacityOverride: 10_000,
		})
	}
	c := mono(Config{Replicas: engines, Policy: FutureHeadroom})
	phases := []float64{0.30, 0.45, 0.70, 1.00, 0.95, 0.75, 0.50, 0.35}
	sum := 0.0
	for _, f := range phases {
		sum += f
	}
	const peak = 1000.0
	rates := make([]workload.RatePhase, len(phases))
	for i, f := range phases {
		rates[i] = workload.RatePhase{Rate: f * peak, Duration: float64(n) / (peak * sum)}
	}
	stream := workload.NewStream(workload.StreamConfig{
		Gen: &workload.Concat{Label: "day-trace", PerPart: n / 3, Parts: []workload.Generator{
			workload.Mixed{Label: "morning", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256)}, Weights: []float64{4, 1}},
			workload.Mixed{Label: "midday", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256), workload.ShareGPTO1}, Weights: []float64{2, 2, 1}},
			workload.Mixed{Label: "evening", Parts: []workload.Generator{workload.ShareGPT, workload.ShareGPTO1}, Weights: []float64{2, 3}},
		}},
		Lengths:  rng.New(seed + 1000),
		Arrivals: rng.New(seed + 2000),
		Phases:   rates,
		N:        n,
		FirstID:  1,
		MaxNew:   150,
	})
	reqs := make([]*request.Request, 0, n)
	for r := stream.Next(); r != nil; r = stream.Next() {
		reqs = append(reqs, r)
	}
	return c, reqs
}
