package cluster

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

func TestFaultConfigValidation(t *testing.T) {
	pools := func() []Config {
		return []Config{{Replicas: replicas(2, 10_000), Policy: FutureHeadroom}}
	}
	for _, tc := range []struct {
		name string
		cfg  FaultConfig
	}{
		{"crash in a missing pool", FaultConfig{Schedule: faults.Script{{At: 0, Kind: faults.Crash, Pool: 5, Duration: 1}}}},
		{"crash of a missing replica", FaultConfig{Schedule: faults.Script{{At: 0, Kind: faults.Crash, Replica: 2, Duration: 1}}}},
		{"link fail rate 1", FaultConfig{LinkFailRate: 1}},
		{"negative link fail rate", FaultConfig{LinkFailRate: -0.1}},
		{"negative retry bound", FaultConfig{MaxTransferRetries: -1}},
		{"negative backoff", FaultConfig{RetryBackoff: -1}},
		// NaN passes every "< 0" check; a NaN backoff would become a NaN
		// event time on the heap.
		{"NaN backoff", FaultConfig{RetryBackoff: math.NaN()}},
		{"NaN link fail rate", FaultConfig{LinkFailRate: math.NaN()}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCluster(ClusterConfig{Pools: pools(), Faults: &tc.cfg}); err == nil {
				t.Errorf("%s accepted: %+v", tc.name, tc.cfg)
			}
		})
	}
	good := &FaultConfig{
		Schedule: faults.Script{{At: 1, Kind: faults.Crash, Replica: 1, Duration: 2}},
		Recover:  true,
	}
	if _, err := NewCluster(ClusterConfig{Pools: pools(), Faults: good}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultsDisabledEquivalence pins the zero-cost-abstraction claim: a
// cluster built with an armed-but-empty fault subsystem (no scheduled
// faults, zero link-fail rate) makes bit-identical decisions — routing,
// plans, sheds, handoff bookings, and the rolled-up report — to one built
// with no fault subsystem at all, across seeds.
func TestFaultsDisabledEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			compareTraces(t, "armed",
				runSeamScenario(seed, &FaultConfig{Recover: true}),
				runSeamScenario(seed, nil))
		})
	}
}

// chaosSeeds returns the conservation sweep's seed set: 1..5 by default,
// 1..N when CHAOS_SEEDS=N (the `make chaos` widening knob).
func chaosSeeds(t *testing.T) []uint64 {
	n := 5
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad CHAOS_SEEDS %q", s)
		}
		n = v
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// stormSchedule is the conservation storm: scripted crashes placed in every
// lifecycle window faults can interrupt — mid-prefill (t=0.5), mid-decode
// and mid-transfer (t=1.0), while admission holds work (t=2.5, which also
// opens an every-decode-replica-down span until 3.0) — plus scripted wire
// failures, a slowdown, and a seeded stochastic crash storm on top.
func stormSchedule(seed uint64) faults.Script {
	s := faults.Script{
		{At: 0.5, Kind: faults.Crash, Pool: 0, Replica: 0, Duration: 1.5},
		{At: 0.8, Kind: faults.LinkFailure, Count: 3},
		{At: 1.0, Kind: faults.Crash, Pool: 1, Replica: 0, Duration: 2},
		{At: 2.5, Kind: faults.Crash, Pool: 1, Replica: 1, Duration: 1.5},
		{At: 3.0, Kind: faults.LinkFailure, Count: 2},
		{At: 4.0, Kind: faults.Slowdown, Pool: 1, Replica: 0, Duration: 2, Factor: 1.8},
	}
	return append(s, faults.Generate(rng.New(seed), 1, 2, 4, 1, 8)...)
}

// downWindows replays a schedule's crash faults through the cluster's
// overlap rule (a crash landing during an open repair span is a no-op) and
// returns each pool-replica's actual down spans.
type downSpan struct{ from, to float64 }

func downWindows(s faults.Script) map[[2]int][]downSpan {
	wins := map[[2]int][]downSpan{}
	up := map[[2]int]float64{}
	for _, f := range faults.Sorted(s) {
		if f.Kind != faults.Crash {
			continue
		}
		key := [2]int{f.Pool, f.Replica}
		if f.At < up[key] {
			continue // replica already down: overlapping crash is a no-op
		}
		wins[key] = append(wins[key], downSpan{from: f.At, to: f.At + f.Duration})
		up[key] = f.At + f.Duration
	}
	return wins
}

// TestFaultConservation is the tentpole's conservation law under fire:
// across seeded crash storms interleaving with prefill, KV transfer,
// decode, and admission holds, every arrival still terminates exactly once
// in {completed, shed} — nothing lost, duplicated, or left held — and no
// KV transfer is ever delivered into a destination's down span.
func TestFaultConservation(t *testing.T) {
	const n = 300
	recoveredTotal := 0
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sch := stormSchedule(seed)
			c := MustNewCluster(ClusterConfig{
				Pools: []Config{
					{Role: engine.RolePrefillOnly, Replicas: prefillReplicas(1, 10_000), Policy: FutureHeadroom},
					{Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(2, 10_000, seed), Policy: FutureHeadroom},
				},
				Link:      kv.MustNewLink(50e9, 0.002),
				Admission: &AdmissionConfig{TTFTBudget: 5, Shed: true},
				Faults: &FaultConfig{
					Schedule: sch, Recover: true,
					MaxTransferRetries: 3, RetryBackoff: 0.05,
					LinkFailRate: 0.05, Seed: seed,
				},
			})
			results := c.Serve(poissonReqs(n, 80, seed), 1e9)

			finished := map[int64]bool{}
			for _, res := range results {
				for _, r := range res.Finished {
					if finished[r.ID] {
						t.Fatalf("request %d finished twice", r.ID)
					}
					if r.Outcome != request.OutcomeCompleted {
						t.Fatalf("finished request %d outcome %v", r.ID, r.Outcome)
					}
					finished[r.ID] = true
				}
				if len(res.Failed) != 0 || len(res.TimedOut) != 0 {
					t.Fatalf("recovery run saw failures (%d) or timeouts (%d)", len(res.Failed), len(res.TimedOut))
				}
			}
			shed := map[int64]bool{}
			for _, r := range c.ShedRequests() {
				if shed[r.ID] {
					t.Fatalf("request %d shed twice", r.ID)
				}
				if finished[r.ID] {
					t.Fatalf("request %d both finished and shed", r.ID)
				}
				if r.Outcome != request.OutcomeShed {
					t.Fatalf("shed request %d outcome %v", r.ID, r.Outcome)
				}
				shed[r.ID] = true
			}
			if got := len(finished) + len(shed); got != n {
				t.Fatalf("%d finished + %d shed = %d, want %d", len(finished), len(shed), got, n)
			}
			if lost := c.LostRequests(); len(lost) != 0 {
				t.Fatalf("recovery run lost %d requests", len(lost))
			}
			if c.HeldRequests() != 0 {
				t.Fatalf("%d requests still held after Serve", c.HeldRequests())
			}
			// The storm must actually have hit live work for the run to mean
			// anything.
			rep := c.Report(results, metrics.SLA{TTFT: 5, MTPOT: 1.5})
			if rep.Summary.Crashes == 0 || rep.Summary.Orphaned == 0 {
				t.Fatalf("storm touched nothing: %d crashes, %d orphans", rep.Summary.Crashes, rep.Summary.Orphaned)
			}
			recoveredTotal += rep.Summary.Recovered
			// No transfer lands inside its destination's down span: for each
			// handoff whose delivery stuck (the request's recorded delivery
			// matches the booking), the instant must be outside every down
			// window of the destination replica.
			wins := downWindows(sch)
			for _, h := range c.Handoffs() {
				if h.DeliveredAt < 0 || h.Req.DeliveredAt != h.DeliveredAt {
					continue // never delivered, or re-tried elsewhere later
				}
				for _, w := range wins[[2]int{1, h.ToReplica}] {
					if h.DeliveredAt > w.from && h.DeliveredAt <= w.to {
						t.Fatalf("request %d delivered at %v into decode replica %d's down span [%v, %v]",
							h.Req.ID, h.DeliveredAt, h.ToReplica, w.from, w.to)
					}
				}
			}
		})
	}
	// Individual seeds may shed every orphan under the tight budget, but the
	// sweep as a whole must exercise end-to-end recovery.
	if recoveredTotal == 0 {
		t.Fatal("no orphaned request recovered to completion in any seed")
	}
}

// TestNoRecoveryLosesTerminally: the same storm with recovery disabled
// conserves arrivals across {completed, shed, lost}; every lost request is
// terminally failed, and the report charges each one as an SLA violation.
func TestNoRecoveryLosesTerminally(t *testing.T) {
	const n = 300
	seed := uint64(3)
	c := MustNewCluster(ClusterConfig{
		Pools: []Config{
			{Role: engine.RolePrefillOnly, Replicas: prefillReplicas(1, 10_000), Policy: FutureHeadroom},
			{Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(2, 10_000, seed), Policy: FutureHeadroom},
		},
		Link:      kv.MustNewLink(50e9, 0.002),
		Admission: &AdmissionConfig{TTFTBudget: 5, Shed: true},
		Faults:    &FaultConfig{Schedule: stormSchedule(seed), LinkFailRate: 0.05, Seed: seed},
	})
	results := c.Serve(poissonReqs(n, 80, seed), 1e9)
	finished := 0
	for _, res := range results {
		finished += len(res.Finished)
	}
	lost := c.LostRequests()
	if len(lost) == 0 {
		t.Fatal("storm without recovery lost nothing")
	}
	seen := map[int64]bool{}
	for _, r := range lost {
		if seen[r.ID] {
			t.Fatalf("request %d lost twice", r.ID)
		}
		seen[r.ID] = true
		if r.Outcome != request.OutcomeFailed {
			t.Fatalf("lost request %d outcome %v, want failed", r.ID, r.Outcome)
		}
	}
	if got := finished + len(c.ShedRequests()) + len(lost); got != n {
		t.Fatalf("%d finished + %d shed + %d lost = %d, want %d",
			finished, len(c.ShedRequests()), len(lost), got, n)
	}
	rep := c.Report(results, metrics.SLA{TTFT: 5, MTPOT: 1.5})
	if rep.Summary.Lost != len(lost) {
		t.Fatalf("summary lost %d, want %d", rep.Summary.Lost, len(lost))
	}
	if rep.Summary.Recovered != 0 || rep.Summary.TransferRetries != 0 {
		t.Fatalf("no-recovery run recorded recoveries: %+v", rep.Summary)
	}
}

// TestCrashRecoveryWithoutAdmission: the recovery path also works on a
// cluster with no admission front — orphans re-enter through the entry
// pool's routing policy and still complete exactly once.
func TestCrashRecoveryWithoutAdmission(t *testing.T) {
	const n = 60
	c := MustNewCluster(ClusterConfig{
		Pools: []Config{{Replicas: replicas(2, 10_000), Policy: FutureHeadroom}},
		Faults: &FaultConfig{
			Recover: true,
			Schedule: faults.Script{
				{At: 0.5, Kind: faults.Crash, Pool: 0, Replica: 0, Duration: 2},
				{At: 1.2, Kind: faults.Crash, Pool: 0, Replica: 1, Duration: 1}, // both down 1.2–2.5
			},
		},
	})
	results := c.Serve(poissonReqs(n, 20, 3), 1e9)
	seen := map[int64]bool{}
	retried := 0
	for _, res := range results {
		for _, r := range res.Finished {
			if seen[r.ID] {
				t.Fatalf("request %d finished twice", r.ID)
			}
			seen[r.ID] = true
			if r.Retries > 0 {
				retried++
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("finished %d of %d", len(seen), n)
	}
	if retried == 0 {
		t.Fatal("no request survived a crash; the scenario exercised nothing")
	}
	rep := c.Report(results, metrics.SLASmall)
	if rep.Summary.Crashes != 2 || rep.Summary.Recovered != retried {
		t.Fatalf("summary crashes=%d recovered=%d, want 2 and %d",
			rep.Summary.Crashes, rep.Summary.Recovered, retried)
	}
	if rep.Summary.MeanTimeToRecover <= 0 {
		t.Fatal("no repair time recorded")
	}
}

// TestPlannerCrashSuppressesScaleIn pins the failure-aware planner rule: an
// interval that saw a crash resets the scale-in patience exactly like a
// shedding one — capacity died mid-interval, demand did not.
func TestPlannerCrashSuppressesScaleIn(t *testing.T) {
	pm := testPerf()
	fl := &flavor{name: "a", pm: pm, capacity: 10_000, cost: 1, relSpeed: 1, reps: make([]*replica, 4)}
	p := newPlanner(PlannerConfig{
		SLA: metrics.SLASmall, Min: 1, Max: 4, Interval: 10,
		Predictor: ConstantPredictor,
	}.withDefaults(), []*flavor{fl}, engine.RoleMixed)

	// Zero demand against 3 active replicas wants Min=1 — shrinking — but
	// the crash holds the fleet and resets the patience.
	p.observeCrash()
	targets := p.tick(10, []int{3})
	if targets[0] != 3 {
		t.Fatalf("crashing interval scaled in: target %d, want held at 3", targets[0])
	}
	if s := p.History[0]; s.Crashes != 1 {
		t.Fatalf("plan sample crashes %d, want 1", s.Crashes)
	}
	// The patience counts from the crash: the first calm interval still
	// holds, the second completes the patience and shrinks.
	if targets = p.tick(20, []int{3}); targets[0] != 3 {
		t.Fatalf("first calm interval after the crash shrank to %d before the patience ran out", targets[0])
	}
	targets = p.tick(30, []int{3})
	if targets[0] >= 3 {
		t.Fatalf("calm interval still held: target %d", targets[0])
	}
	if s := p.History[2]; s.Crashes != 0 {
		t.Fatalf("calm sample crashes %d, want 0", s.Crashes)
	}
}

// TestPlannerSpareTopsUp pins N+1 redundancy: Spare adds that many replicas
// on top of the forecast-sized fleet, capped at Max.
func TestPlannerSpareTopsUp(t *testing.T) {
	pm := testPerf()
	mk := func(spare int) *planner {
		fl := &flavor{name: "a", pm: pm, capacity: 10_000, cost: 1, relSpeed: 1, reps: make([]*replica, 4)}
		return newPlanner(PlannerConfig{
			SLA: metrics.SLASmall, Min: 1, Max: 4, Interval: 10,
			Predictor: ConstantPredictor, Spare: spare,
		}.withDefaults(), []*flavor{fl}, engine.RoleMixed)
	}
	// Zero demand sizes to Min=1; one spare makes the standing target 2.
	if targets := mk(1).tick(10, []int{1}); targets[0] != 2 {
		t.Fatalf("spare-1 target %d, want 2 (Min 1 + spare)", targets[0])
	}
	// Spare never pushes past Max.
	if targets := mk(10).tick(10, []int{1}); targets[0] != 4 {
		t.Fatalf("spare-10 target %d, want Max 4", targets[0])
	}
	if _, err := NewCluster(ClusterConfig{
		Pools: []Config{{
			Replicas: replicas(2, 10_000), Policy: FutureHeadroom,
			Planner: &PlannerConfig{SLA: metrics.SLASmall, Min: 1, Max: 2, Spare: -1},
		}},
	}); err == nil {
		t.Fatal("negative Spare accepted")
	}
}

// TestReactiveScaleCostAware pins the heterogeneous reactive policy
// (satellite: cost-aware reactive scaling): scale-out activates the
// cheapest cold flavor, scale-in retires the worst cost-per-goodput drained
// replica — and on a homogeneous pool both reduce to the original
// index-order picks.
func TestReactiveScaleCostAware(t *testing.T) {
	pmExp, pmCheap := perfFor(hw.A100_80G), perfFor(hw.RTX4090)
	p := mono(Config{
		Replicas: mixedReplicas(pmExp, 2, pmCheap, 2, 10_000, 3),
		Policy:   FutureHeadroom,
		Scale:    &AutoScale{Min: 1, Max: 4, HighWater: 0.85, LowWater: 0.3},
	}).pools[0]
	exp, cheap := p.reps[0].flv, p.reps[2].flv
	if cheap.cost >= exp.cost {
		t.Skipf("4090 cost %v not below A100 %v; scenario tests nothing", cheap.cost, exp.cost)
	}
	if exp.cost/exp.relSpeed <= cheap.cost/cheap.relSpeed {
		t.Skipf("A100 not costlier per goodput (%v vs %v)",
			exp.cost/exp.relSpeed, cheap.cost/cheap.relSpeed)
	}

	// Scale-out: only the premium replica 0 is active; with the high-water
	// forced below the (idle) load, the policy buys the cheapest cold
	// replica — index 2, the first 4090 — not cold premium index 1.
	for _, rep := range p.reps[1:] {
		p.retire(rep, 0)
	}
	p.cfg.Scale.HighWater = -1
	p.reactiveScale(1)
	if !p.reps[2].active || p.reps[1].active || p.reps[3].active {
		t.Fatalf("scale-out active set [%v %v %v %v], want only index 2 added",
			p.reps[0].active, p.reps[1].active, p.reps[2].active, p.reps[3].active)
	}

	// Scale-in: all four active and drained; with the low-water forced above
	// the load, the policy sheds the costliest-per-goodput replica — premium
	// index 1 (ties inside the premium flavor keep the highest index).
	for _, rep := range p.reps {
		if !rep.active {
			p.activate(rep, 2, 0)
		}
	}
	p.cfg.Scale.HighWater = 0.85
	p.cfg.Scale.LowWater = 1e9
	p.reactiveScale(3)
	if p.reps[1].active || !p.reps[0].active || !p.reps[2].active || !p.reps[3].active {
		t.Fatalf("scale-in active set [%v %v %v %v], want only index 1 retired",
			p.reps[0].active, p.reps[1].active, p.reps[2].active, p.reps[3].active)
	}

	// Homogeneous reduction: identical flavors fall back to the pre-flavor
	// index-order picks (first cold out, last drained in).
	hp := mono(Config{
		Replicas: replicas(3, 10_000), Policy: FutureHeadroom,
		Scale: &AutoScale{Min: 1, Max: 3, HighWater: -1, LowWater: -2},
	}).pools[0]
	hp.retire(hp.reps[1], 0)
	hp.retire(hp.reps[2], 0)
	hp.reactiveScale(1)
	if !hp.reps[1].active || hp.reps[2].active {
		t.Fatal("homogeneous scale-out skipped the first cold replica")
	}
	hp.activate(hp.reps[2], 2, 0)
	hp.cfg.Scale.HighWater, hp.cfg.Scale.LowWater = 10, 5
	hp.reactiveScale(3)
	if hp.reps[2].active || !hp.reps[1].active {
		t.Fatal("homogeneous scale-in skipped the last drained replica")
	}
}
