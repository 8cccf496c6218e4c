package cluster

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/request"
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

// TestPlannerCrashSuppressesScaleIn pins the failure-aware planner rule: an
// interval that saw a crash resets the scale-in patience exactly like a
// shedding one — capacity died mid-interval, demand did not.
func TestPlannerCrashSuppressesScaleIn(t *testing.T) {
	pm := testPerf()
	fl := &flavor{name: "a", pm: pm, capacity: 10_000, cost: 1, relSpeed: 1, reps: make([]*replica, 4)}
	p := newPlanner(PlannerConfig{
		SLA: metrics.SLASmall, Min: 1, Max: 4, Interval: 10,
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
			Spare: spare,
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
		Scale:    &AutoScale{Max: 4, HighWater: 0.85, LowWater: 0.3},
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
		p.transition(rep, 0, cold, false)
	}
	p.cfg.Scale.HighWater = -1
	p.reactiveScale(1)
	if !provisioned(p.reps[2]) || provisioned(p.reps[1]) || provisioned(p.reps[3]) {
		t.Fatalf("scale-out active set [%v %v %v %v], want only index 2 added",
			provisioned(p.reps[0]), provisioned(p.reps[1]), provisioned(p.reps[2]), provisioned(p.reps[3]))
	}

	// Scale-in: all four active and drained; with the low-water forced above
	// the load, the policy sheds the costliest-per-goodput replica — premium
	// index 1 (ties inside the premium flavor keep the highest index).
	for _, rep := range p.reps {
		if rep.phase == cold {
			p.wake(rep, 2)
		}
	}
	p.cfg.Scale.HighWater = 0.85
	p.cfg.Scale.LowWater = 1e9
	p.reactiveScale(3)
	if provisioned(p.reps[1]) || !provisioned(p.reps[0]) || !provisioned(p.reps[2]) || !provisioned(p.reps[3]) {
		t.Fatalf("scale-in active set [%v %v %v %v], want only index 1 retired",
			provisioned(p.reps[0]), provisioned(p.reps[1]), provisioned(p.reps[2]), provisioned(p.reps[3]))
	}

	// Homogeneous reduction: identical flavors fall back to the pre-flavor
	// index-order picks (first cold out, last drained in).
	hp := mono(Config{
		Replicas: replicas(3, 10_000), Policy: FutureHeadroom,
		Scale: &AutoScale{Max: 3, HighWater: -1, LowWater: -2},
	}).pools[0]
	hp.transition(hp.reps[1], 0, cold, false)
	hp.transition(hp.reps[2], 0, cold, false)
	hp.reactiveScale(1)
	if !provisioned(hp.reps[1]) || provisioned(hp.reps[2]) {
		t.Fatal("homogeneous scale-out skipped the first cold replica")
	}
	hp.wake(hp.reps[2], 2)
	hp.cfg.Scale.HighWater, hp.cfg.Scale.LowWater = 10, 5
	hp.reactiveScale(3)
	if provisioned(hp.reps[2]) || !provisioned(hp.reps[1]) {
		t.Fatal("homogeneous scale-in skipped the last drained replica")
	}
}

// provisioned reports whether a replica is out of the cold phase.
func provisioned(rep *replica) bool { return rep.phase != cold }

// faultBytes is the size of one fault in FuzzFaultScript's input: At,
// Duration and Factor as raw float64 bits, then the kind, pool, replica and
// link-failure count, one signed byte each.
const faultBytes = 28

// encodeScript is decodeScript's inverse, for seeding the corpus.
func encodeScript(recover bool, s faults.Script) []byte {
	b := []byte{0}
	if recover {
		b[0] = 1
	}
	for _, f := range s {
		for _, v := range []float64{f.At, f.Duration, f.Factor} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		b = append(b, byte(f.Kind), byte(int8(f.Pool)), byte(int8(f.Replica)), byte(int8(f.Count)))
	}
	return b
}

// decodeScript reads at most 8 faults; the floats come from raw bits, so
// NaN, ±Inf and negative values occur.
func decodeScript(b []byte) (recover bool, s faults.Script) {
	if len(b) == 0 {
		return false, nil
	}
	recover, b = b[0]&1 == 1, b[1:]
	for len(b) >= faultBytes && len(s) < 8 {
		float := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])) }
		s = append(s, faults.Fault{
			At: float(0), Duration: float(1), Factor: float(2),
			Kind: faults.Kind(b[24] % 4), Pool: int(int8(b[25])), Replica: int(int8(b[26])), Count: int(int8(b[27])),
		})
		b = b[faultBytes:]
	}
	return recover, s
}

// faultScriptCluster is FuzzFaultScript's cluster: one prefill and two
// decode replicas over a flaky link, behind admission with shedding.
func faultScriptCluster(recover bool, sch faults.Script) (*Cluster, error) {
	return NewCluster(ClusterConfig{
		Pools: []Config{
			{Role: engine.RolePrefillOnly, Replicas: prefillReplicas(1, 10_000), Policy: FutureHeadroom},
			{Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(2, 10_000, 1), Policy: FutureHeadroom},
		},
		Link:      kv.MustNewLink(50e9, 0.002),
		Admission: &AdmissionConfig{TTFTBudget: 5, Shed: true},
		Faults:    &FaultConfig{Schedule: sch, Recover: recover, LinkFailRate: 0.05, Seed: 1},
	})
}

// serveScript serves faultScriptCluster's traffic to a deadline of 1e4 and
// checks it: every arrival ends completed, shed or lost, and every KV pool
// is consistent and, once drained, empty. Only a run the deadline cut may
// leave work behind: a live step, a booking, a delivery or a retry on the
// heap (fault and repair events are not work), or a request held by a
// replica still down at the deadline whose repair ends. A replica down for
// good holds nothing: what would go to it is lost.
func serveScript(t *testing.T, c *Cluster) {
	t.Helper()
	s := served{c: c, reqs: poissonReqs(40, 20, 1)}
	s.results = c.Serve(s.reqs, 1e4)
	cut := false
	for _, ev := range c.events.Items() {
		switch ev.kind {
		case evStep:
			cut = cut || ev.seq == c.pools[ev.pool].reps[ev.rep].stepSeq
		case evXfer, evDeliver, evRetry, evXferRetry:
			cut = cut || ev.at < math.Inf(1)
		}
	}
	stuck := map[*request.Request]bool{}
	for _, p := range c.pools {
		for _, rep := range p.reps {
			if rep.down && !rep.downForGood() {
				rep.eng.ForEachWaiting(func(r *request.Request) { stuck[r] = true })
				rep.eng.ForEachRunning(func(r *request.Request) { stuck[r] = true })
			}
		}
	}
	checkEnded(t, s, func(r *request.Request) bool { return cut || stuck[r] })
	checkPools(t, c, !cut && len(stuck) == 0)
}

// TestPermanentCrash serves FuzzFaultScript's cluster with replicas that
// never come back, with and without recovery: every arrival must end, lost
// when no decode replica is left to take its KV or the entry replica is
// gone.
func TestPermanentCrash(t *testing.T) {
	inf := math.Inf(1)
	for _, sch := range []faults.Script{
		{{At: 0.5, Kind: faults.Crash, Pool: 0, Duration: inf}},
		{{At: 0.5, Kind: faults.Crash, Pool: 1, Duration: inf}},
		{{At: 0.5, Kind: faults.Crash, Pool: 1, Duration: inf}, {At: 0.7, Kind: faults.Crash, Pool: 1, Replica: 1, Duration: inf}},
	} {
		for _, recover := range []bool{false, true} {
			c, err := faultScriptCluster(recover, sch)
			if err != nil {
				t.Fatal(err)
			}
			s := served{c: c, reqs: poissonReqs(40, 20, 1)}
			s.results = c.Serve(s.reqs, 1e4)
			checkEnded(t, s, nil)
			checkPools(t, c, true)
		}
	}
}

// FuzzFaultScript serves a small disaggregated cluster under any fault
// script NewCluster accepts (serveScript): Serve must return without a
// panic by its deadline, conserve every arrival and keep every KV pool
// consistent.
func FuzzFaultScript(f *testing.F) {
	for seed := uint64(1); seed <= 3; seed++ {
		f.Add(encodeScript(true, stormSchedule(seed)))
	}
	nan := math.NaN()
	for _, flt := range []faults.Fault{
		{At: nan, Kind: faults.Crash, Pool: 1, Duration: 1},
		{At: 0.5, Kind: faults.Slowdown, Pool: 1, Duration: nan, Factor: 2},
		{At: 0.5, Kind: faults.Slowdown, Pool: 1, Duration: 1, Factor: nan},
		{At: 0.5, Kind: faults.Slowdown, Pool: 1, Duration: 1, Factor: math.Inf(1)},
		{At: 0.5, Kind: faults.Crash, Pool: 1, Duration: math.Inf(1)},
		{At: 0.5, Kind: faults.Crash, Pool: 0, Duration: math.Inf(1)},
	} {
		f.Add(encodeScript(false, faults.Script{flt}))
		f.Add(encodeScript(true, faults.Script{flt}))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := faultScriptCluster(decodeScript(b))
		if err != nil {
			return
		}
		serveScript(t, c)
	})
}
