package cluster

import (
	"fmt"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

func testPerf() *perf.Model {
	return perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
}

func replicas(n, capacity int) []*engine.Engine {
	return seededReplicas(n, capacity, 0)
}

// seededReplicas is replicas with every history window starting from
// `samples` ShareGPT output lengths of the replica's own, the way a replica
// that has served for a while holds a full window.
func seededReplicas(n, capacity, samples int) []*engine.Engine {
	pm := testPerf()
	out := make([]*engine.Engine, n)
	for i := range out {
		r := rng.New(uint64(1000 + i))
		hist := make([]int, samples)
		for k := range hist {
			_, hist[k] = workload.ShareGPT.Sample(r)
		}
		out[i] = engine.MustNew(engine.Config{
			Perf: pm,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(uint64(i + 1)),
			}),
			CapacityOverride: capacity,
			SeedHistory:      hist,
		})
	}
	return out
}

func poissonReqs(n int, rate float64, seed uint64) []*request.Request {
	r := rng.New(seed)
	reqs := workload.Build(workload.ShareGPT, r, n, 1, 512)
	workload.AssignPoissonArrivals(reqs, r, rate, 0)
	return reqs
}

func TestFleetValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no replicas accepted")
	}
	if _, err := New(Config{Replicas: replicas(2, 1000), Quantile: 1.5}); err == nil {
		t.Fatal("bad quantile accepted")
	}
	if _, err := New(Config{
		Replicas: replicas(2, 1000),
		Scale:    &AutoScale{Min: 0, Max: 2},
	}); err == nil {
		t.Fatal("bad autoscale bounds accepted")
	}
	if _, err := New(Config{
		Replicas: replicas(2, 1000),
		Scale:    &AutoScale{Min: 1, Max: 2},
		Planner:  &PlannerConfig{SLA: metrics.SLASmall, Min: 1, Max: 2},
	}); err == nil {
		t.Fatal("Scale+Planner accepted")
	}
	if _, err := New(Config{
		Replicas: replicas(2, 1000),
		Planner:  &PlannerConfig{SLA: metrics.SLA{}, Min: 1, Max: 2},
	}); err == nil {
		t.Fatal("zero SLA targets accepted")
	}
	if _, err := New(Config{
		Replicas: replicas(2, 1000),
		Planner:  &PlannerConfig{SLA: metrics.SLASmall, Min: 2, Max: 1},
	}); err == nil {
		t.Fatal("bad planner bounds accepted")
	}
}

// TestWarmProbeMatchesNaive pins the tentpole's equivalence claim: the warm
// per-replica PeakEstimator probe path (incremental PeakWith, zero
// allocations) must reproduce, decision for decision, the routing of the
// reference clone+sort core.PredictedBatchPeak path the original router
// used — on randomized seeded workloads heavy enough to queue.
func TestWarmProbeMatchesNaive(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			trace := func(naive bool) []int {
				var picks []int
				f := MustNew(Config{
					Replicas:   replicas(3, 12_000),
					Policy:     FutureHeadroom,
					NaiveProbe: naive,
					OnRoute:    func(_ *request.Request, rep int) { picks = append(picks, rep) },
				})
				f.Serve(poissonReqs(250, 25, seed), 1e9)
				return picks
			}
			warm, naive := trace(false), trace(true)
			if len(warm) != len(naive) {
				t.Fatalf("decision counts differ: warm %d, naive %d", len(warm), len(naive))
			}
			for i := range warm {
				if warm[i] != naive[i] {
					t.Fatalf("decision %d differs: warm chose %d, naive chose %d", i, warm[i], naive[i])
				}
			}
		})
	}
}

// TestProbeZeroAllocs pins the other half of the claim: once a replica's
// estimator is warm, a FutureHeadroom probe (and a full pick across the
// fleet) performs zero heap allocations; so does an estimator rebuild after
// an invalidation that did not change the history window.
func TestProbeZeroAllocs(t *testing.T) {
	f := MustNew(Config{Replicas: replicas(4, 20_000), Policy: FutureHeadroom})
	reqs := poissonReqs(200, 40, 7)
	f.Serve(reqs, 1e9)

	cand := request.New(int64(9_999), 800, 400, 512, 0)
	f.pick(cand) // warm every replica's estimator and sampler
	if allocs := testing.AllocsPerRun(200, func() { f.pick(cand) }); allocs != 0 {
		t.Fatalf("warm pick allocates %v times per run", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		for _, rep := range f.reps {
			rep.moved(false) // state changed, window did not
		}
		f.pick(cand)
	}); allocs != 0 {
		t.Fatalf("estimator rebuild allocates %v times per run", allocs)
	}
}

// TestPlaceThenProbeZeroAllocs: keeping a placement visible costs no
// allocation either. Once a first burst has grown the buffers, a whole
// arrival — pick, submit, splice into the warm estimator — allocates
// nothing, and neither does the pick that follows it.
func TestPlaceThenProbeZeroAllocs(t *testing.T) {
	place, reset := placeLoop(t)
	for i := 0; i < placeBurst; i++ {
		place()
	}
	reset()
	if allocs := testing.AllocsPerRun(placeBurst-1, place); allocs != 0 {
		t.Fatalf("place-then-probe allocates %v times per run", allocs)
	}
}

// TestProbePinsWindowGeneration pins the contract behind holding a live
// dist.Sampler across events: the history window moves only inside a Step
// that finishes a request, which is never a pure decode step, so every such
// Step invalidates the warm estimator (replica.moved) and a probe always
// prices its candidate on the window generation the estimator was built at.
// Every fleet test runs through that check; this one shows it fires when the
// window is moved behind the cluster's back.
func TestProbePinsWindowGeneration(t *testing.T) {
	f := MustNew(Config{Replicas: replicas(2, 20_000), Policy: FutureHeadroom})
	f.Serve(poissonReqs(100, 40, 3), 1e9)
	cand := request.New(int64(9_999), 800, 400, 512, 0)
	f.pick(cand)
	for i, rep := range f.reps {
		if !rep.estValid || rep.estGen != rep.eng.History().Generation() || rep.estGen == 0 {
			t.Fatalf("replica %d: warm estimator at generation %d, window at %d",
				i, rep.estGen, rep.eng.History().Generation())
		}
	}
	f.reps[0].eng.History().Add(77) // no Step, so nobody told the replica
	defer func() {
		if recover() == nil {
			t.Fatal("probe read a sampler whose window moved since the estimator was built")
		}
	}()
	f.pick(cand)
}

func TestRoundRobinStartsAtFirstReplica(t *testing.T) {
	// Regression: the original router incremented its rotation counter
	// before the modulo, so the first request skipped replica 0.
	f := MustNew(Config{Replicas: replicas(3, 50_000), Policy: RoundRobin})
	reqs := poissonReqs(3, 5, 11)
	var picks []int
	f.cfg.OnRoute = func(_ *request.Request, rep int) { picks = append(picks, rep) }
	f.Serve(reqs, 1e9)
	want := []int{0, 1, 2}
	for i, p := range picks {
		if p != want[i] {
			t.Fatalf("round-robin picks %v, want %v", picks, want)
		}
	}
}

func TestAllRequestsServedOnce(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastLoaded, FutureHeadroom} {
		f := MustNew(Config{Replicas: replicas(3, 50_000), Policy: pol})
		results := f.Serve(poissonReqs(120, 30, 2), 1e9)
		seen := map[int64]bool{}
		for _, res := range results {
			for _, req := range res.Finished {
				if seen[req.ID] {
					t.Fatalf("%v: request %d served twice", pol, req.ID)
				}
				seen[req.ID] = true
			}
		}
		if len(seen) != 120 {
			t.Fatalf("%v: served %d of 120", pol, len(seen))
		}
	}
}

// TestActivationDelayGate: a scale-out decision at time t must not receive
// traffic before t+ActivationDelay.
func TestActivationDelayGate(t *testing.T) {
	const delay = 3.0
	var routed []*request.Request
	var toNew []*request.Request
	f := MustNew(Config{
		Replicas: replicas(2, 6_000),
		Policy:   FutureHeadroom,
		Scale:    &AutoScale{Min: 1, Max: 2, HighWater: 0.3, LowWater: 0.01, ActivationDelay: delay},
		OnRoute: func(r *request.Request, rep int) {
			routed = append(routed, r)
			if rep == 1 {
				toNew = append(toNew, r)
			}
		},
	})
	f.Serve(poissonReqs(200, 30, 13), 1e9)
	if out, _ := f.ScaleEvents(); out == 0 {
		t.Fatal("load never triggered a scale-out")
	}
	if len(toNew) == 0 {
		t.Fatal("scaled-out replica never received traffic")
	}
	wake := f.reps[1].wakeAt
	if wake <= 0 {
		t.Fatalf("scaled-out replica has no wake time")
	}
	for _, r := range toNew {
		if r.ArrivalTime < wake {
			t.Fatalf("request arriving at %.3f routed to replica activating at %.3f", r.ArrivalTime, wake)
		}
	}
	// And the activation delay was actually paid: the first request the new
	// replica received arrived at least `delay` after some earlier arrival.
	if wake-delay < routed[0].ArrivalTime {
		t.Fatalf("wake %.3f implies a scale-out before the first arrival %.3f", wake, routed[0].ArrivalTime)
	}
}

// TestScaleInKeepsLastReplica: scale-in must never deactivate the last
// active replica, even when the autoscaler's low-water threshold is
// permanently exceeded, and no request may be lost to a scale-in.
func TestScaleInKeepsLastReplica(t *testing.T) {
	f := MustNew(Config{
		Replicas: replicas(3, 50_000),
		Policy:   LeastLoaded,
		// LowWater 1.0: every evaluation wants to scale in.
		Scale: &AutoScale{Min: 1, Max: 3, HighWater: 2.0, LowWater: 1.0, ActivationDelay: 0.5, EvalInterval: 1},
	})
	results := f.Serve(poissonReqs(150, 10, 17), 1e9)
	if f.ActiveReplicas() < 1 {
		t.Fatalf("fleet scaled to %d active replicas", f.ActiveReplicas())
	}
	finished := 0
	for _, res := range results {
		finished += len(res.Finished)
	}
	if finished != 150 {
		t.Fatalf("finished %d of 150 after aggressive scale-in", finished)
	}
}

// TestPlannerDrainBeforeRetire: the predictive planner must not retire a
// busy replica mid-drain — it stops routing to it and retires it only once
// its queue and batch are empty.
func TestPlannerDrainBeforeRetire(t *testing.T) {
	var assignments = map[int64]int{}
	f := MustNew(Config{
		Replicas: replicas(4, 10_000),
		Policy:   FutureHeadroom,
		Planner: &PlannerConfig{
			SLA: metrics.SLASmall, Min: 1, Max: 4, Interval: 5,
			Predictor: HoltPredictor, ActivationDelay: 1,
		},
		OnRoute: func(r *request.Request, rep int) { assignments[r.ID] = rep },
	})
	// Heavy burst then silence: the planner must scale out, then drain and
	// retire the extra replicas without losing in-flight work.
	burst := poissonReqs(250, 35, 19)
	results := f.Serve(burst, 1e9)
	finished := 0
	for _, res := range results {
		finished += len(res.Finished)
	}
	if finished != 250 {
		t.Fatalf("finished %d of 250 across planner scale events", finished)
	}
	for _, s := range f.PlanHistory() {
		if s.Active < 1 || s.Target < 1 {
			t.Fatalf("planner sample %+v dropped below one replica", s)
		}
	}
	if _, in := f.ScaleEvents(); in == 0 {
		t.Fatal("planner never scaled in after the burst drained")
	}
}

// TestPlannerScalesOutUnderRamp: a ramping load must drive the planner's
// target up before the fleet saturates.
func TestPlannerScalesOutUnderRamp(t *testing.T) {
	f := MustNew(Config{
		Replicas: replicas(4, 8_000),
		Policy:   FutureHeadroom,
		Planner: &PlannerConfig{
			SLA: metrics.SLA{TTFT: 5, MTPOT: 1.0}, Min: 1, Max: 4, Interval: 4,
			Predictor: HoltPredictor, ActivationDelay: 1,
		},
	})
	// Three escalating phases.
	r := rng.New(23)
	var reqs []*request.Request
	id := int64(1)
	for phase, rate := range []float64{2, 8, 20} {
		part := workload.Build(workload.ShareGPT, r, 80, id, 512)
		workload.AssignPoissonArrivals(part, r, rate, float64(phase)*12)
		id += 80
		reqs = append(reqs, part...)
	}
	f.Serve(reqs, 1e9)
	if out, _ := f.ScaleEvents(); out == 0 {
		t.Fatal("planner never scaled out under a ramping load")
	}
	maxTarget := 0
	for _, s := range f.PlanHistory() {
		if s.Target > maxTarget {
			maxTarget = s.Target
		}
	}
	if maxTarget < 2 {
		t.Fatalf("planner target never exceeded one replica; history %+v", f.PlanHistory())
	}
}

// TestServeDrainsPreloadedEnginesWithoutStream: Serve(nil, deadline) must
// still drain work submitted directly to the replicas before the call —
// the original router's RunUntil semantics.
func TestServeDrainsPreloadedEnginesWithoutStream(t *testing.T) {
	reps := replicas(2, 20_000)
	for i := 0; i < 5; i++ {
		reps[0].Submit(request.New(int64(100+i), 200, 50, 100, 0))
	}
	f := MustNew(Config{Replicas: reps, Policy: RoundRobin})
	results := f.Serve(nil, 1e9)
	if len(results[0].Finished) != 5 {
		t.Fatalf("pre-loaded engine finished %d of 5 with an empty stream", len(results[0].Finished))
	}
}

func TestReplicaSecondsNoScaling(t *testing.T) {
	f := MustNew(Config{Replicas: replicas(3, 50_000), Policy: RoundRobin})
	results := f.Serve(poissonReqs(60, 20, 29), 1e9)
	var last float64
	for _, res := range results {
		if res.Duration > last {
			last = res.Duration
		}
	}
	want := 3 * f.Duration()
	got := f.ReplicaSeconds()
	if got <= 0 || got > want+1e-6 || got < want-1e-6 {
		t.Fatalf("replica-seconds %v, want %v (3 replicas × %.2fs)", got, want, f.Duration())
	}
}

func TestFleetReport(t *testing.T) {
	f := MustNew(Config{Replicas: replicas(2, 50_000), Policy: RoundRobin})
	results := f.Serve(poissonReqs(80, 20, 31), 1e9)
	rep := f.Report(results, metrics.SLASmall)
	if rep.Finished != 80 {
		t.Fatalf("report finished %d, want 80", rep.Finished)
	}
	if rep.Summary.Total != 80 {
		t.Fatalf("summary total %d, want 80", rep.Summary.Total)
	}
	if rep.Replicas != 2 || len(rep.RoutedCounts) != 2 {
		t.Fatalf("report replica shape wrong: %+v", rep)
	}
	if rep.RoutedCounts[0]+rep.RoutedCounts[1] != 80 {
		t.Fatalf("routed counts %v do not sum to 80", rep.RoutedCounts)
	}
	if rep.ReplicaSeconds <= 0 || rep.Duration <= 0 {
		t.Fatalf("report accounting empty: %+v", rep)
	}
}

func TestPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || LeastLoaded.String() != "least-loaded" ||
		FutureHeadroom.String() != "future-headroom" {
		t.Fatal("policy strings wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy string empty")
	}
	for _, p := range []Policy{RoundRobin, LeastLoaded, FutureHeadroom} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round-trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
