package cluster

import (
	"fmt"
	"math"
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

// mono builds the monolithic fleet: the cluster of one RoleMixed pool.
func mono(cfg Config) *Cluster {
	return MustNewCluster(ClusterConfig{Pools: []Config{cfg}})
}

// TestFleetValidation: NewCluster rejects every malformed pool
// configuration, non-finite values included — NaN passes any "x < lo || x >
// hi" check, so each range has to be written to reject it.
func TestFleetValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		pool Config
	}{
		{"no replicas", Config{Replicas: []*engine.Engine{}}},
		{"nil engine", Config{Replicas: []*engine.Engine{replicas(1, 1000)[0], nil}}},
		{"unknown policy", Config{Policy: FutureHeadroom + 1}},
		{"negative policy", Config{Policy: -1}},
		{"negative affinity", Config{AffinityWeight: -1}},
		{"NaN affinity", Config{AffinityWeight: nan}},
		{"infinite affinity", Config{AffinityWeight: inf}},
		{"bad autoscale bounds", Config{Scale: &AutoScale{Max: 0}}},
		{"NaN autoscale high water", Config{Scale: &AutoScale{Max: 2, HighWater: nan}}},
		{"NaN autoscale eval interval", Config{Scale: &AutoScale{Max: 2, EvalInterval: nan}}},
		{"negative autoscale activation delay", Config{Scale: &AutoScale{Max: 2, ActivationDelay: -1}}},
		{"Scale and Planner", Config{
			Scale:   &AutoScale{Max: 2},
			Planner: &PlannerConfig{SLA: metrics.SLASmall, Min: 1, Max: 2},
		}},
		{"zero SLA targets", Config{Planner: &PlannerConfig{SLA: metrics.SLA{}, Min: 1, Max: 2}}},
		{"bad planner bounds", Config{Planner: &PlannerConfig{SLA: metrics.SLASmall, Min: 2, Max: 1}}},
		{"NaN planner interval", Config{Planner: &PlannerConfig{SLA: metrics.SLASmall, Min: 1, Max: 2, Interval: nan}}},
		{"NaN planner headroom", Config{Planner: &PlannerConfig{SLA: metrics.SLASmall, Min: 1, Max: 2, Headroom: nan}}},
		{"NaN planner TTFT target", Config{Planner: &PlannerConfig{SLA: metrics.SLA{TTFT: nan, MTPOT: 1.5}, Min: 1, Max: 2}}},
		{"negative planner activation delay", Config{Planner: &PlannerConfig{SLA: metrics.SLASmall, Min: 1, Max: 2, ActivationDelay: -5}}},
		{"planner interval below a millisecond", Config{Planner: &PlannerConfig{SLA: metrics.SLASmall, Min: 1, Max: 2, Interval: 1e-300}}},
		{"autoscale eval interval below a millisecond", Config{Scale: &AutoScale{Max: 2, EvalInterval: 1e-4}}},
		{"unknown planner predictor", Config{Planner: &PlannerConfig{SLA: metrics.SLASmall, Min: 1, Max: 2, Predictor: HoltPredictor + 1}}},
		{"negative planner predictor", Config{Planner: &PlannerConfig{SLA: metrics.SLASmall, Min: 1, Max: 2, Predictor: -1}}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.pool.Replicas == nil { // every row but "no replicas" and "nil engine"
				tc.pool.Replicas = replicas(2, 1000)
			}
			if _, err := NewCluster(ClusterConfig{Pools: []Config{tc.pool}}); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

// TestServeStreamMatchesServe: the pull-based arrival source — the streaming
// entry point long-trace replay uses — produces the same results as the
// materialized slice. ClusterConfig.Workers is accepted and changes nothing.
func TestServeStreamMatchesServe(t *testing.T) {
	run := func(workers int, stream bool) string {
		c := MustNewCluster(ClusterConfig{
			Pools:   []Config{{Replicas: replicas(2, 8_000), Policy: FutureHeadroom}},
			Workers: workers,
		})
		reqs := poissonReqs(200, 60, 7)
		var results []*engine.Result
		if stream {
			i := 0
			results = c.ServeStream(func() *request.Request {
				if i >= len(reqs) {
					return nil
				}
				i++
				return reqs[i-1]
			}, 1e9)
		} else {
			results = c.Serve(reqs, 1e9)
		}
		if c.EventsProcessed() == 0 {
			t.Fatal("no events counted")
		}
		return fmt.Sprintf("%+v", c.Report(results, metrics.SLA{TTFT: 6, MTPOT: 1.5}))
	}
	ref := run(0, false)
	for _, w := range []int{0, 4} {
		if got := run(w, true); got != ref {
			t.Fatalf("workers=%d stream report diverges:\ngot: %s\nref: %s", w, got, ref)
		}
	}
}

// TestWarmProbeMatchesNaive pins the warm probe path to the reference the
// original router used: at every FutureHeadroom decision of a fleet heavy
// enough to queue, the replica the warm per-replica estimators chose must be
// naivePick's — the argmin of one clone+sort core.PredictedBatchPeak per
// accepting replica. onRoute fires before the engine sees the request, so the
// oracle reads the state the pick read. Seeds follow CHAOS_SEEDS (make chaos).
func TestWarmProbeMatchesNaive(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			decisions := 0
			c := mono(Config{Replicas: replicas(3, 12_000), Policy: FutureHeadroom})
			p := c.pools[0]
			p.onRoute = func(r *request.Request, rep int) {
				if want := naivePick(p, r); want.idx != rep {
					t.Fatalf("decision %d (request %d): warm chose replica %d, naive argmin %d", decisions, r.ID, rep, want.idx)
				}
				decisions++
			}
			const n = 250
			c.Serve(poissonReqs(n, 25, seed), 1e9)
			if decisions != n {
				t.Fatalf("%d decisions checked for %d arrivals", decisions, n)
			}
		})
	}
}

// TestProbeZeroAllocs pins the other half of the claim: once a replica's
// estimator is warm, a FutureHeadroom probe (and a full pick across the
// fleet) performs zero heap allocations; so does an estimator rebuild after
// an invalidation that did not change the history window.
func TestProbeZeroAllocs(t *testing.T) {
	c := mono(Config{Replicas: replicas(4, 20_000), Policy: FutureHeadroom})
	c.Serve(poissonReqs(200, 40, 7), 1e9)
	f := c.pools[0]

	cand := request.New(int64(9_999), 800, 400, 512, 0)
	f.pick(cand) // warm every replica's estimator and sampler
	if allocs := testing.AllocsPerRun(200, func() { f.pick(cand) }); allocs != 0 {
		t.Fatalf("warm pick allocates %v times per run", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		for _, rep := range f.reps {
			rep.moved(engine.StepOther) // state changed, window did not
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
	c := mono(Config{Replicas: replicas(2, 20_000), Policy: FutureHeadroom})
	c.Serve(poissonReqs(100, 40, 3), 1e9)
	f := c.pools[0]
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
	var picks []int
	f := mono(Config{Replicas: replicas(3, 50_000), Policy: RoundRobin})
	f.pools[0].onRoute = func(_ *request.Request, rep int) { picks = append(picks, rep) }
	f.Serve(poissonReqs(3, 5, 11), 1e9)
	want := []int{0, 1, 2}
	for i, p := range picks {
		if p != want[i] {
			t.Fatalf("round-robin picks %v, want %v", picks, want)
		}
	}
}

func TestAllRequestsServedOnce(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastLoaded, FutureHeadroom} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			f := mono(Config{Replicas: replicas(3, 50_000), Policy: pol})
			results := f.Serve(poissonReqs(120, 30, 2), 1e9)
			seen := map[int64]bool{}
			for _, res := range results {
				for _, req := range res.Finished {
					if seen[req.ID] {
						t.Fatalf("request %d served twice", req.ID)
					}
					seen[req.ID] = true
				}
			}
			if len(seen) != 120 {
				t.Fatalf("served %d of 120", len(seen))
			}
		})
	}
}

// TestActivationDelayGate: a scale-out decision at time t must not receive
// traffic before t+ActivationDelay.
func TestActivationDelayGate(t *testing.T) {
	const delay = 3.0
	var routed []*request.Request
	var toNew []*request.Request
	f := mono(Config{
		Replicas: replicas(2, 6_000),
		Policy:   FutureHeadroom,
		Scale:    &AutoScale{Max: 2, HighWater: 0.3, LowWater: 0.01, ActivationDelay: delay},
	})
	f.pools[0].onRoute = func(r *request.Request, rep int) {
		routed = append(routed, r)
		if rep == 1 {
			toNew = append(toNew, r)
		}
	}
	f.Serve(poissonReqs(200, 30, 13), 1e9)
	if out, _ := f.Pool(0).ScaleEvents(); out == 0 {
		t.Fatal("load never triggered a scale-out")
	}
	if len(toNew) == 0 {
		t.Fatal("scaled-out replica never received traffic")
	}
	wake := f.pools[0].reps[1].wakeAt
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
	f := mono(Config{
		Replicas: replicas(3, 50_000),
		Policy:   LeastLoaded,
		// LowWater 1.0: every evaluation wants to scale in.
		Scale: &AutoScale{Max: 3, HighWater: 2.0, LowWater: 1.0, ActivationDelay: 0.5, EvalInterval: 1},
	})
	results := f.Serve(poissonReqs(150, 10, 17), 1e9)
	if f.Pool(0).ActiveReplicas() < 1 {
		t.Fatalf("fleet scaled to %d active replicas", f.Pool(0).ActiveReplicas())
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
	f := mono(Config{
		Replicas: replicas(4, 10_000),
		Policy:   FutureHeadroom,
		Planner: &PlannerConfig{
			SLA: metrics.SLASmall, Min: 1, Max: 4, Interval: 5,
			Predictor: HoltPredictor, ActivationDelay: 1,
		},
	})
	f.pools[0].onRoute = func(r *request.Request, rep int) { assignments[r.ID] = rep }
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
	for _, s := range f.Pool(0).PlanHistory() {
		if s.Active < 1 || s.Target < 1 {
			t.Fatalf("planner sample %+v dropped below one replica", s)
		}
	}
	if _, in := f.Pool(0).ScaleEvents(); in == 0 {
		t.Fatal("planner never scaled in after the burst drained")
	}
}

// TestPlannerScalesOutUnderRamp: a ramping load must drive the planner's
// target up before the fleet saturates.
func TestPlannerScalesOutUnderRamp(t *testing.T) {
	f := mono(Config{
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
	if out, _ := f.Pool(0).ScaleEvents(); out == 0 {
		t.Fatal("planner never scaled out under a ramping load")
	}
	maxTarget := 0
	for _, s := range f.Pool(0).PlanHistory() {
		if s.Target > maxTarget {
			maxTarget = s.Target
		}
	}
	if maxTarget < 2 {
		t.Fatalf("planner target never exceeded one replica; history %+v", f.Pool(0).PlanHistory())
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
	f := mono(Config{Replicas: reps, Policy: RoundRobin})
	results := f.Serve(nil, 1e9)
	if len(results[0].Finished) != 5 {
		t.Fatalf("pre-loaded engine finished %d of 5 with an empty stream", len(results[0].Finished))
	}
}

func TestReplicaSecondsNoScaling(t *testing.T) {
	f := mono(Config{Replicas: replicas(3, 50_000), Policy: RoundRobin})
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
	f := mono(Config{Replicas: replicas(2, 50_000), Policy: RoundRobin})
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
}

func TestRoundRobinBalances(t *testing.T) {
	c := mono(Config{Replicas: replicas(4, 50_000), Policy: RoundRobin})
	results := c.Serve(poissonReqs(200, 20, 1), 1e9)
	for i, n := range c.Pool(0).RoutedCounts() {
		if n != 50 {
			t.Fatalf("replica %d got %d requests: %v", i, n, c.Pool(0).RoutedCounts())
		}
	}
	total := 0
	for _, res := range results {
		total += len(res.Finished)
	}
	if total != 200 {
		t.Fatalf("finished %d of 200", total)
	}
	if imb := c.Pool(0).Imbalance(); imb != 0 {
		t.Fatalf("round robin imbalance %v", imb)
	}
}

// TestFutureHeadroomAvoidsLoadedReplica: replica 0 is pre-loaded with
// long-running requests, so the headroom policy must steer arrivals to
// replica 1.
func TestFutureHeadroomAvoidsLoadedReplica(t *testing.T) {
	reps := replicas(2, 20_000)
	for i := 0; i < 8; i++ {
		reps[0].Submit(request.New(int64(1000+i), 1000, 1000, 1200, 0))
	}
	c := mono(Config{Replicas: reps, Policy: FutureHeadroom})
	c.Serve(poissonReqs(40, 50, 3), 1e9)
	if counts := c.Pool(0).RoutedCounts(); counts[1] <= counts[0] {
		t.Fatalf("headroom routing did not avoid the loaded replica: %v", counts)
	}
}

func TestLeastLoadedAvoidsQueuedReplica(t *testing.T) {
	reps := replicas(2, 20_000)
	for i := 0; i < 30; i++ {
		reps[0].Submit(request.New(int64(1000+i), 2000, 500, 600, 0))
	}
	c := mono(Config{Replicas: reps, Policy: LeastLoaded})
	c.Serve(poissonReqs(40, 50, 4), 1e9)
	if counts := c.Pool(0).RoutedCounts(); counts[1] <= counts[0] {
		t.Fatalf("least-loaded routing did not avoid the queued replica: %v", counts)
	}
}

// TestAutoscaleOutUnderLoad: small replicas under heavy traffic make the
// reactive autoscaler grow the fleet from one active replica.
func TestAutoscaleOutUnderLoad(t *testing.T) {
	c := mono(Config{
		Replicas: replicas(4, 8_000),
		Policy:   FutureHeadroom,
		Scale:    &AutoScale{Max: 4, HighWater: 0.6, LowWater: 0.1, ActivationDelay: 1.0},
	})
	p := c.Pool(0)
	if p.ActiveReplicas() != 1 {
		t.Fatalf("initial active = %d", p.ActiveReplicas())
	}
	c.Serve(poissonReqs(300, 40, 5), 1e9)
	if out, _ := p.ScaleEvents(); out == 0 {
		t.Fatal("no scale-out under heavy load")
	}
	if p.ActiveReplicas() < 2 {
		t.Fatalf("active replicas %d after heavy load", p.ActiveReplicas())
	}
}

// TestAutoscaleInWhenIdle: a heavy burst forces a scale-out, then a long
// trickle lets the load fall below the low-water mark, which scales in.
func TestAutoscaleInWhenIdle(t *testing.T) {
	c := mono(Config{
		Replicas: replicas(3, 8_000),
		Policy:   LeastLoaded,
		Scale:    &AutoScale{Max: 3, HighWater: 0.7, LowWater: 0.2, ActivationDelay: 0.5},
	})
	burst := poissonReqs(200, 50, 6)
	trickle := workload.Build(workload.ShareGPT, rng.New(7), 60, 10_000, 256)
	workload.AssignPoissonArrivals(trickle, rng.New(8), 0.5, 120) // slow arrivals after the burst
	c.Serve(append(burst, trickle...), 1e9)
	up, down := c.Pool(0).ScaleEvents()
	if up == 0 {
		t.Fatal("no scale-out during burst")
	}
	if down == 0 {
		t.Fatal("no scale-in during trickle")
	}
}

// TestHeadroomBeatsRoundRobinOnSkewedLoad: heterogeneous request sizes
// create load skew that round-robin cannot see. At moderate utilisation
// (near the knee, where queueing is transient rather than saturated),
// estimator-driven routing must give a lower mean TTFT.
func TestHeadroomBeatsRoundRobinOnSkewedLoad(t *testing.T) {
	meanTTFT := func(policy Policy) float64 {
		gen := workload.Uniform{Label: "skewed", InLo: 100, InHi: 4000, OutLo: 50, OutHi: 2000}
		rr := rng.New(9)
		reqs := workload.Build(gen, rr, 300, 1, 2048)
		workload.AssignPoissonArrivals(reqs, rr, 1.3, 0)
		var sum float64
		var n int
		for _, res := range mono(Config{Replicas: replicas(3, 30_000), Policy: policy}).Serve(reqs, 1e9) {
			for _, req := range res.Finished {
				sum += req.TTFT()
				n++
			}
		}
		if n == 0 {
			t.Fatal("nothing finished")
		}
		return sum / float64(n)
	}
	if hr, rrob := meanTTFT(FutureHeadroom), meanTTFT(RoundRobin); hr >= rrob {
		t.Fatalf("future-headroom mean TTFT %.2fs not below round-robin %.2fs", hr, rrob)
	}
}

// TestMonolithicAdmissionSheds: a one-pool cluster behind shedding admission
// refuses part of an overloaded stream terminally, every arrival ends exactly
// once in {completed, shed}, and nothing stays held after Serve.
func TestMonolithicAdmissionSheds(t *testing.T) {
	const n = 300
	c := MustNewCluster(ClusterConfig{
		Pools:     []Config{{Replicas: replicas(2, 8_000), Policy: FutureHeadroom}},
		Admission: &AdmissionConfig{TTFTBudget: 4, Shed: true, Slack: 0.5},
	})
	rr := rng.New(5)
	reqs := workload.Build(workload.ShareGPT, rr, n, 1, 512)
	workload.AssignPoissonArrivals(reqs, rr, 60, 0)
	finished := 0
	for _, res := range c.Serve(reqs, 1e9) {
		finished += len(res.Finished)
	}
	shed := c.ShedRequests()
	if len(shed) == 0 {
		t.Fatal("overloaded cluster shed nothing")
	}
	if finished+len(shed) != n {
		t.Fatalf("%d finished + %d shed != %d arrivals", finished, len(shed), n)
	}
	if c.HeldRequests() != 0 {
		t.Fatalf("%d requests left held after Serve", c.HeldRequests())
	}
	for _, s := range shed {
		if s.Outcome != request.OutcomeShed {
			t.Fatalf("shed request %d outcome %v", s.ID, s.Outcome)
		}
	}
}
