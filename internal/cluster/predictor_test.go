package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// TestUnknownPredictorPanics: a kind outside the enum is a caller's bug, not
// a request for Holt, and the panic names the kind.
func TestUnknownPredictorPanics(t *testing.T) {
	for _, k := range []PredictorKind{HoltPredictor + 1, -1} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if want := k.String(); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("MustNewCluster with predictor %v: recovered %v, want a panic naming %q", k, err, want)
				}
			}()
			MustNewCluster(ClusterConfig{Pools: []Config{{
				Replicas: replicas(2, 1000),
				Planner:  &PlannerConfig{SLA: metrics.SLASmall, Min: 1, Max: 2, Predictor: k},
			}}})
		}()
	}
}

func TestHoltPredictorExtrapolatesTrend(t *testing.T) {
	var h holt
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	// On an exactly linear series Holt's recurrences are exact: the
	// forecast is the next point.
	if got := h.Predict(); math.Abs(got-6) > 1e-9 {
		t.Fatalf("holt predicts %v for 1..5, want 6", got)
	}
}

func TestReplicaThroughputInterpolation(t *testing.T) {
	pm := testPerf()
	f := &flavor{name: "test", pm: pm, capacity: pm.CapacityTokens(), cost: 1, relSpeed: 1, reps: make([]*replica, 1)}
	price := func(ttft, mtpot, isl float64) flavorThr {
		p := newPlanner(PlannerConfig{SLA: metrics.SLA{TTFT: ttft, MTPOT: mtpot}, Min: 1, Max: 1}.withDefaults(),
			[]*flavor{f}, engine.RoleMixed)
		return p.flavorThroughput(f, isl, 300)
	}
	loose, tight := price(10, 1.5, 500), price(10, 0.05, 500)
	if loose.thr <= 0 || tight.thr <= 0 {
		t.Fatalf("throughput not positive: loose %v tight %v", loose.thr, tight.thr)
	}
	if tight.thr > loose.thr {
		t.Fatalf("tighter TPOT target yields higher throughput: %v > %v", tight.thr, loose.thr)
	}
	if tight.predTPOT > 0.05 {
		t.Fatalf("operating point %v violates the TPOT target", tight.predTPOT)
	}

	// A TTFT target below the prefill time of a single prompt is infeasible.
	if op := price(1e-6, 1.5, 4000); op.thr != 0 || op.predTTFT <= 0 {
		t.Fatalf("infeasible TTFT returned rate %v (pred %v)", op.thr, op.predTTFT)
	}
}

func TestCorrectionFactorClamps(t *testing.T) {
	c := updateCorrection(1, 1000, 1) // observed 1000× worse than predicted
	if c > correctionCeil {
		t.Fatalf("correction %v above ceiling", c)
	}
	for i := 0; i < 20; i++ {
		c = updateCorrection(c, 1, 1000)
	}
	if c < correctionFloor {
		t.Fatalf("correction %v below floor", c)
	}
	if got := updateCorrection(2, 0, 1); got != 2 {
		t.Fatalf("zero observation mutated correction: %v", got)
	}
}

func TestPlannerTargetScalesWithRate(t *testing.T) {
	pm := testPerf()
	f := &flavor{name: "test", pm: pm, capacity: pm.CapacityTokens(), cost: 1, relSpeed: 1, reps: make([]*replica, 8)}
	p := newPlanner(PlannerConfig{
		SLA: metrics.SLASmall, Min: 1, Max: 8, Interval: 10,
	}.withDefaults(), []*flavor{f}, engine.RoleMixed)
	total := func(rate float64) int {
		_, n := p.targetVec(rate, 500, 300)
		return n
	}
	low := total(0.5)
	high := total(50)
	if low < 1 || high > 8 {
		t.Fatalf("targets outside bounds: %d, %d", low, high)
	}
	if high <= low {
		t.Fatalf("100× the load did not raise the target: %d -> %d", low, high)
	}
}

// TestPlannerVectorMatchesScalarRule holds the cost-aware vector sizing to
// the rule it replaced, on randomized planners — any role, correction
// factors, prefix hit rate, chunk and transfer pricing, bounds, Headroom,
// Spare and speed awareness. A single-flavor pool's targetVec is the
// pre-flavor scalar rule (scalarTarget at Headroom): in its target and in
// the predicted TTFT and TPOT the correction factors compare against. With a
// second flavor that costs next to nothing, the vector rule must size that
// flavor by the same scalar rule at its own speed-aware utilization target
// (refHeadroom) and leave the other at zero whenever it can carry the demand
// alone. Seeds follow CHAOS_SEEDS (make chaos).
func TestPlannerVectorMatchesScalarRule(t *testing.T) {
	// Fast models first: with two flavors the pricier one is drawn from the
	// fast half and the nearly free one from the slow half.
	models := []*perf.Model{perfFor(hw.H800), perfFor(hw.A100_80G), perfFor(hw.A30), perfFor(hw.RTX4090)}
	roles := []engine.Role{engine.RoleMixed, engine.RolePrefillOnly, engine.RoleDecodeOnly}
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rng.New(seed + 900)
			// What the trials met: single-flavor checks, single-flavor pools the
			// SLA rules out, two-flavor checks, and those among them whose lead
			// flavor's target speed awareness changed.
			var single, infeasible, lead, speedAware int
			for trial := 0; trial < 400; trial++ {
				role := roles[r.Intn(len(roles))]
				mk := func(n int, models []*perf.Model) *flavor {
					pm := models[r.Intn(len(models))]
					f := &flavor{name: pm.Cluster().Name(), pm: pm, capacity: 4_000 + r.Intn(80_000),
						cost: pm.CostWeight(), relSpeed: 1, reps: make([]*replica, n)}
					if r.Intn(2) == 0 {
						f.chunkOver = func(tokens float64) float64 { return 0.002 * math.Ceil(tokens/512) }
					}
					if role == engine.RolePrefillOnly && r.Intn(2) == 0 {
						f.xfer = func(isl float64) float64 { return 2e-5 * isl }
					}
					return f
				}
				two, first := r.Intn(2) == 0, models
				if two {
					first = models[:2]
				}
				flavors := []*flavor{mk(1+r.Intn(12), first)}
				if two {
					cheap := mk(4+r.Intn(9), models[2:])
					cheap.cost = 1e-3 // leads the cost order whenever it is feasible
					flavors = append(flavors, cheap)
				}
				n := 0
				for _, f := range flavors {
					n += len(f.reps)
				}
				hi := 1 + r.Intn(n)
				headroom := 0.3 + 0.7*r.Float64()
				switch r.Intn(5) {
				case 0:
					headroom = 0 // the default
				case 1:
					headroom = 1
				}
				cfg := PlannerConfig{
					SLA:      metrics.SLA{TTFT: 0.05 + 8*r.Float64(), MTPOT: 0.01 + 0.4*r.Float64()},
					Min:      1 + r.Intn(hi),
					Max:      hi,
					Headroom: headroom, Spare: r.Intn(3), SpeedAware: r.Intn(2) == 0,
				}
				if err := cfg.validate(n); err != nil {
					t.Fatal(err)
				}
				p := newPlanner(cfg.withDefaults(), flavors, role)
				p.corrTTFT = correctionFloor + (correctionCeil-correctionFloor)*r.Float64()
				p.corrTPOT = correctionFloor + (correctionCeil-correctionFloor)*r.Float64()
				if r.Intn(2) == 0 {
					p.hitRate = 0.9 * r.Float64()
				}
				isl, osl := 1+4000*r.Float64(), 1+2000*r.Float64()
				ops := make([]flavorThr, len(flavors))
				fastest := 0.0
				for i, f := range flavors {
					ops[i] = p.flavorThroughput(f, isl, osl)
					fastest = math.Max(fastest, ops[i].thr)
				}
				li := 0
				if len(flavors) == 2 {
					li = 1
					if ops[1].thr <= 0 {
						li = 0
					}
					if ops[li].thr <= 0 {
						continue // nothing feasible: the vector rule throws the fleet at it
					}
				}
				// Half the demands land where the lead flavor's replica count is
				// decided: between none and all of its replicas at their target.
				h := refHeadroom(p.cfg, ops[li].thr, fastest)
				rate := 100 * r.Float64()
				if ops[li].thr > 0 && r.Intn(2) == 0 {
					rate = ops[li].thr * h * float64(len(flavors[li].reps)) * r.Float64()
				}
				want, op := scalarTarget(p, flavors[li], h, rate, isl, osl)
				if len(flavors) == 2 && want > len(flavors[li].reps) {
					continue // the demand spills over onto the other flavor
				}
				got, _ := p.targetVec(rate, isl, osl)
				if got[li] != want || (len(got) == 2 && got[1-li] != 0) ||
					p.lastPredTTFT != op.predTTFT || p.lastPredTPOT != op.predTPOT {
					t.Fatalf("seed %d trial %d (%v, %d flavors, %+v, headroom %v): targetVec %v, predicted (%v, %v); scalar rule on flavor %d wants %d, predicted (%v, %v)",
						seed, trial, role, len(flavors), p.cfg, h, got, p.lastPredTTFT, p.lastPredTPOT, li, want, op.predTTFT, op.predTPOT)
				}
				switch {
				case len(flavors) == 2:
					lead++
					if atH, _ := scalarTarget(p, flavors[li], p.cfg.Headroom, rate, isl, osl); atH != want {
						speedAware++
					}
				case op.thr <= 0:
					infeasible++
				default:
					single++
				}
			}
			if single == 0 || infeasible == 0 || lead == 0 || speedAware == 0 {
				t.Fatalf("seed %d met %d single-flavor, %d infeasible, %d two-flavor and %d speed-aware two-flavor cases: some rule went unchecked",
					seed, single, infeasible, lead, speedAware)
			}
		})
	}
}
