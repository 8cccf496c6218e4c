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
)

// perfFor builds a perf model for one GPU platform serving the test model.
func perfFor(gpu hw.GPU) *perf.Model {
	return perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(gpu, 1)})
}

// mixedReplicas builds a heterogeneous RoleMixed replica set: nA engines on
// pmA followed by nB engines on pmB, all with the same capacity override.
func mixedReplicas(pmA *perf.Model, nA int, pmB *perf.Model, nB int, capacity int, seed uint64) []*engine.Engine {
	out := make([]*engine.Engine, 0, nA+nB)
	pms := []*perf.Model{pmA, pmB}
	counts := []int{nA, nB}
	i := 0
	for g, pm := range pms {
		for k := 0; k < counts[g]; k++ {
			out = append(out, engine.MustNew(engine.Config{
				Perf: pm,
				Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
					Reserved: 0.05, Rng: rng.New(seed + uint64(i)),
				}),
				CapacityOverride: capacity,
			}))
			i++
		}
	}
	return out
}

// TestFlavorGrouping pins the flavor derivation: replicas sharing one perf
// model and capacity collapse into one flavor, distinct hardware splits,
// cost weights come from the hardware price, and the relative speed of the
// fastest flavor is exactly 1.
func TestFlavorGrouping(t *testing.T) {
	pmFast, pmSlow := perfFor(hw.A100_80G), perfFor(hw.A30)
	flavors := mono(Config{
		Replicas: mixedReplicas(pmFast, 2, pmSlow, 3, 8_000, 1),
		Policy:   FutureHeadroom,
	}).Pool(0).Flavors()
	if len(flavors) != 2 {
		t.Fatalf("flavors %d, want 2: %+v", len(flavors), flavors)
	}
	if flavors[0].Name != "A100-80G" || flavors[0].Replicas != 2 {
		t.Fatalf("flavor 0 wrong: %+v", flavors[0])
	}
	if flavors[1].Name != "A30" || flavors[1].Replicas != 3 {
		t.Fatalf("flavor 1 wrong: %+v", flavors[1])
	}
	if w := flavors[0].CostWeight; math.Abs(w-1.0) > 1e-12 {
		t.Fatalf("A100-80G cost weight %v, want 1.0 (the baseline)", w)
	}
	if w := flavors[1].CostWeight; math.Abs(w-hw.A30.CostPerHour/hw.A100_80G.CostPerHour) > 1e-12 {
		t.Fatalf("A30 cost weight %v", w)
	}
	if flavors[0].RelSpeed != 1.0 {
		t.Fatalf("fastest flavor relSpeed %v, want exactly 1.0", flavors[0].RelSpeed)
	}
	if s := flavors[1].RelSpeed; s <= 0 || s >= 1 {
		t.Fatalf("A30 relSpeed %v, want in (0,1)", s)
	}

	// A homogeneous pool is one flavor with relSpeed exactly 1.0 — the
	// invariant that makes speed-normalized scores bit-identical to raw
	// probe fractions.
	hf := mono(Config{Replicas: replicas(3, 8_000), Policy: FutureHeadroom}).Pool(0).Flavors()
	if len(hf) != 1 || hf[0].RelSpeed != 1.0 || hf[0].Replicas != 3 {
		t.Fatalf("homogeneous flavors wrong: %+v", hf)
	}
}

// TestCostSecondsAccounting: without autoscaling every replica is active
// for the whole run, so CostSeconds is the run duration times the summed
// flavor weights — and the all-baseline fleet's CostSeconds equals its
// ReplicaSeconds.
func TestCostSecondsAccounting(t *testing.T) {
	pmFast, pmSlow := perfFor(hw.A100_80G), perfFor(hw.A30)
	f := mono(Config{
		Replicas: mixedReplicas(pmFast, 1, pmSlow, 2, 20_000, 3),
		Policy:   RoundRobin,
	})
	results := f.Serve(poissonReqs(60, 20, 29), 1e9)
	if len(results) != 3 {
		t.Fatalf("results %d, want 3", len(results))
	}
	wantWeight := pmFast.CostWeight() + 2*pmSlow.CostWeight()
	want := wantWeight * f.Duration()
	if got := f.CostSeconds(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("cost-seconds %v, want %v (%.3f weight × %.2fs)", got, want, wantWeight, f.Duration())
	}

	h := mono(Config{Replicas: replicas(2, 20_000), Policy: RoundRobin})
	h.Serve(poissonReqs(40, 20, 31), 1e9)
	if got, want := h.CostSeconds(), h.ReplicaSeconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("baseline fleet cost-seconds %v != replica-seconds %v", got, want)
	}
}

// TestSpeedNormalizedPick: two idle replicas with identical capacity probe
// the same raw memory fraction, so the pre-flavor argmin would stick with
// the first (slow) replica; the speed-normalized score must route to the
// faster flavor instead — headroom on an A100 clears sooner than the same
// headroom on an A30.
func TestSpeedNormalizedPick(t *testing.T) {
	pmSlow, pmFast := perfFor(hw.A30), perfFor(hw.A100_80G)
	// Slow flavor first: on a raw-fraction tie the old argmin picks index 0.
	var picks []int
	f := mono(Config{
		Replicas: mixedReplicas(pmSlow, 1, pmFast, 1, 10_000, 5),
		Policy:   FutureHeadroom,
	})
	f.pools[0].onRoute = func(_ *request.Request, rep int) { picks = append(picks, rep) }
	f.Serve([]*request.Request{request.New(1, 400, 4, 64, 0)}, 1e9)
	if len(picks) != 1 || picks[0] != 1 {
		t.Fatalf("first pick %v, want the fast replica (index 1)", picks)
	}
}

// TestHeteroPlannerPrefersCheapFlavor pins the cost-aware sizing rule
// directly: demand that fits the cheap flavor's capacity leaves the
// expensive flavor at zero; demand beyond it spills onto the expensive
// flavor; an SLA-infeasible shape still maxes the fleet out.
func TestHeteroPlannerPrefersCheapFlavor(t *testing.T) {
	pmExp, pmCheap := perfFor(hw.A100_80G), perfFor(hw.RTX4090)
	cheap := &flavor{name: "cheap", pm: pmCheap, capacity: 10_000, cost: pmCheap.CostWeight(), relSpeed: 1, reps: make([]*replica, 4)}
	exp := &flavor{name: "premium", pm: pmExp, capacity: 10_000, cost: pmExp.CostWeight(), relSpeed: 1, reps: make([]*replica, 4)}
	p := newPlanner(PlannerConfig{
		SLA: metrics.SLASmall, Min: 1, Max: 8, Interval: 10,
	}.withDefaults(), []*flavor{exp, cheap}, engine.RoleMixed)

	// Sanity: the 4090 must actually be the cheaper way to buy throughput
	// at this shape, else the scenario tests nothing.
	thrExp := p.flavorThroughput(exp, 500, 300)
	thrCheap := p.flavorThroughput(cheap, 500, 300)
	if thrExp.thr <= 0 || thrCheap.thr <= 0 {
		t.Fatalf("flavors infeasible at test shape: %v %v", thrExp, thrCheap)
	}
	if cheap.cost/thrCheap.thr >= exp.cost/thrExp.thr {
		t.Skipf("4090 not cheaper per throughput at this shape (%.3f vs %.3f)",
			cheap.cost/thrCheap.thr, exp.cost/thrExp.thr)
	}

	// Low demand: everything lands on the cheap flavor (flavor order in the
	// targets vector follows the pool's flavor order: premium first).
	low, _ := p.targetVec(thrCheap.thr*2, 500, 300)
	if low[0] != 0 || low[1] < 1 || low[1] > 4 {
		t.Fatalf("low-demand targets %v, want premium 0 and cheap in [1,4]", low)
	}
	// Demand beyond the cheap flavor's four replicas spills onto premium.
	high, _ := p.targetVec(thrCheap.thr*8, 500, 300)
	if high[1] != 4 || high[0] < 1 {
		t.Fatalf("high-demand targets %v, want cheap maxed at 4 and premium > 0", high)
	}
	// An infeasible shape (absurd rate with impossible SLA) maxes out.
	pTight := newPlanner(PlannerConfig{
		SLA: metrics.SLA{TTFT: 1e-9, MTPOT: 1e-9}, Min: 1, Max: 8, Interval: 10,
	}.withDefaults(), []*flavor{exp, cheap}, engine.RoleMixed)
	all, _ := pTight.targetVec(5, 500, 300)
	if all[0]+all[1] != 8 {
		t.Fatalf("infeasible shape targets %v, want the whole fleet (8)", all)
	}
}

// TestHoldRespectsMaxTotal is the patience-hold bound regression: when a
// demand shift moves the allocation onto the cheap flavor while the
// expensive flavor is still active, the hold floors the shrinking flavor
// at its active count AND trims the increases so the per-flavor targets
// never sum past PlannerConfig.Max.
func TestHoldRespectsMaxTotal(t *testing.T) {
	pmExp, pmCheap := perfFor(hw.A100_80G), perfFor(hw.RTX4090)
	exp := &flavor{name: "premium", pm: pmExp, capacity: 10_000, cost: pmExp.CostWeight(), relSpeed: 1, reps: make([]*replica, 8)}
	cheap := &flavor{name: "cheap", pm: pmCheap, capacity: 10_000, cost: pmCheap.CostWeight(), relSpeed: 1, reps: make([]*replica, 6)}
	p := newPlanner(PlannerConfig{
		SLA: metrics.SLASmall, Min: 1, Max: 10, Interval: 10,
	}.withDefaults(), []*flavor{exp, cheap}, engine.RoleMixed)

	thrCheap := p.flavorThroughput(cheap, 500, 300)
	if thrCheap.thr <= 0 {
		t.Fatalf("cheap flavor infeasible at test shape: %v", thrCheap)
	}
	// Demand sized to ~5 cheap replicas while 8 premium replicas are
	// active: the raw targets want [0, 5]; flooring premium at 8 without a
	// trim would return 13 > Max.
	rate := thrCheap.thr * 0.8 * 4.5
	p.arrivals = int(rate * 10)
	p.sumISL = 500 * float64(p.arrivals)
	p.lastOSL = 300
	targets := p.tick(10, []int{8, 0})
	total := targets[0] + targets[1]
	if total > 10 {
		t.Fatalf("held targets %v sum to %d, past Max 10", targets, total)
	}
	if targets[0] != 8 {
		t.Fatalf("held targets %v shrank the active premium flavor below 8 with patience pending", targets)
	}
	if targets[1] == 0 {
		t.Fatalf("held targets %v gave the cheap flavor nothing despite Max room", targets)
	}
}

// TestHeteroFloorUsesFastestFlavor: the admission shed floor must be the
// *minimum* feasible floor across the entry pool's flavors — a request is
// refused only when no flavor could make its deadline.
func TestHeteroFloorUsesFastestFlavor(t *testing.T) {
	pmSlow, pmFast := perfFor(hw.A30), perfFor(hw.A100_80G)
	c := MustNewCluster(ClusterConfig{
		Pools: []Config{{
			Replicas: mixedReplicas(pmSlow, 1, pmFast, 1, 10_000, 7),
			Policy:   FutureHeadroom,
		}},
		Admission: &AdmissionConfig{TTFTBudget: 8, Shed: true},
	})
	r := request.New(1, 2_000, 4, 64, 0)
	slow, fast := pmSlow.PrefillTime(r.InputLen), pmFast.PrefillTime(r.InputLen)
	if fast >= slow {
		t.Fatalf("scenario broken: A100 prefill %v not faster than A30 %v", fast, slow)
	}
	if got := c.adm.floor(r); got != fast {
		t.Fatalf("floor %v, want the fastest flavor's prefill %v (slow %v)", got, fast, slow)
	}
	// A deadline only the fast flavor can meet must not be infeasible.
	r.TTFTDeadline = fast + (slow-fast)/2
	if c.adm.infeasible(0, r) {
		t.Fatal("request feasible on the fast flavor judged infeasible")
	}
}

// TestSingleFlavorMatchesHomogeneous holds a single-flavor cluster to the
// homogeneous path flavors replaced, on every fault-free matrix cell with a
// planner and one GPU type: each pool is one flavor at relative speed
// exactly 1, so speed-normalized routing scores are the raw probe fractions,
// and every planner tick sizes its pool by the pre-flavor scalar rule
// (checkScalarPlan) — same seeds, same decisions.
func TestSingleFlavorMatchesHomogeneous(t *testing.T) {
	for _, mc := range matrixCells() {
		if !mc.planner || mc.hetero || mc.faults != faultsOff {
			continue
		}
		for seed := uint64(1); seed <= 4; seed++ {
			mc, seed := mc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", mc.name, seed), func(t *testing.T) {
				c, reqs := mc.build(seed, nil, &decisionTrace{})
				initial := make([]int, c.NumPools())
				for pi := range initial {
					initial[pi] = c.Pool(pi).ActiveReplicas()
				}
				c.Serve(reqs, 1e9)
				if mc.admit && len(c.ShedRequests()) == 0 {
					t.Fatal("the cell shed nothing; the test exercises no admission pressure")
				}
				moved := 0
				for pi := 0; pi < c.NumPools(); pi++ {
					p := c.Pool(pi)
					if fl := p.Flavors(); len(fl) != 1 || fl[0].RelSpeed != 1 {
						t.Fatalf("pool %d flavors %+v, want one at relative speed 1", pi, fl)
					}
					moved += checkScalarPlan(t, pi, p, initial[pi])
				}
				if moved == 0 {
					t.Fatal("no planner tick changed a target; the scalar rule went unchecked")
				}
			})
		}
	}
}

// checkScalarPlan replays a single-flavor pool's plan history against the
// scalar rule (scalarTarget at Headroom): the forecast is rebuilt from the
// observations each tick recorded, sized at the recorded correction factors
// and hit rate, and scale-in is held by the same patience and shed/crash
// rule. Without faults or a reactive scaler only the planner moves the active
// count, so each tick starts from the count the previous one left. It returns
// how many ticks set a target other than the active count they started from.
func checkScalarPlan(t *testing.T, pi int, p *Pool, active int) int {
	t.Helper()
	hist := p.PlanHistory()
	if len(hist) == 0 {
		t.Fatalf("pool %d never planned", pi)
	}
	ref := newPlanner(p.plan.cfg, p.plan.flavors, p.plan.role)
	moved, belowFor := 0, 0
	for k, s := range hist {
		ref.predRate.Observe(s.Rate)
		ref.predISL.Observe(s.ISL)
		ref.predOSL.Observe(s.OSL)
		predRate := math.Max(ref.predRate.Predict(), 0)
		if predRate != s.PredRate {
			t.Fatalf("pool %d tick %d: replayed forecast %v, planner forecast %v", pi, k, predRate, s.PredRate)
		}
		ref.corrTTFT, ref.corrTPOT, ref.hitRate = s.CorrTTFT, s.CorrTPOT, s.HitRate
		want, _ := scalarTarget(ref, ref.flavors[0], ref.cfg.Headroom, math.Max(predRate, s.Rate),
			math.Max(ref.predISL.Predict(), 1), math.Max(ref.predOSL.Predict(), 1))
		if want < active {
			belowFor++
			if s.Shed > 0 || s.Crashes > 0 {
				belowFor = 0
			}
			if belowFor == 0 || belowFor < scaleInPatience {
				want = active
			}
		} else {
			belowFor = 0
		}
		if s.Target != want || len(s.Targets) != 1 || s.Targets[0] != want {
			t.Fatalf("pool %d tick %d @%.3f: target %d (%v) from %d active; scalar rule wants %d",
				pi, k, s.At, s.Target, s.Targets, active, want)
		}
		if want != active {
			moved++
		}
		active = s.Active
	}
	return moved
}

// TestSpeedAwareHeadroom unit-pins the per-flavor utilization targets
// derived from absolute service speed: the fastest flavor gets exactly the
// configured headroom (bit-identity on homogeneous fleets), slower flavors
// get strictly lower targets, monotone in speed, and the feature is inert
// when disabled.
func TestSpeedAwareHeadroom(t *testing.T) {
	p := &planner{cfg: PlannerConfig{Headroom: 0.8, SpeedAware: true}}
	if got := p.headroomFor(10, 10); got != 0.8 {
		t.Fatalf("fastest flavor target %v, want exactly the configured 0.8", got)
	}
	slow, slower := p.headroomFor(5, 10), p.headroomFor(2, 10)
	if !(slow < 0.8 && slow > 0) || !(slower < slow) {
		t.Fatalf("slower flavors must get strictly lower targets: %v, %v", slow, slower)
	}
	off := &planner{cfg: PlannerConfig{Headroom: 0.8}}
	if got := off.headroomFor(2, 10); got != 0.8 {
		t.Fatalf("disabled speed-aware target %v, want 0.8", got)
	}
}
