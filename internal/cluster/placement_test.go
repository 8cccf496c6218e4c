package cluster

import (
	"fmt"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// A placement must be visible to the very next probe: a request the router
// just submitted waits in its engine's arrival heap until that replica's
// next step, and a probe that does not count it sends every arrival inside
// one step interval to the same "emptiest" replica. The herd tests pin the
// visible outcome (identical replicas share a burst evenly), the cross-check
// pins the mechanism (the spliced warm estimator equals a rebuild equals the
// naive reference, and no replica loses count of a request).

// lockstepReplicas builds n mixed replicas that stay identical while they
// receive identical work: the scheduler draws no randomness.
func lockstepReplicas(n, capacity int) []*engine.Engine {
	pm := testPerf()
	out := make([]*engine.Engine, n)
	for i := range out {
		out[i] = engine.MustNew(engine.Config{
			Perf:             pm,
			Scheduler:        core.MustNewConservative(1.0),
			CapacityOverride: capacity,
		})
	}
	return out
}

// burst returns n identical requests with ids from firstID, the k-th
// arriving at at + k·gap.
func burst(firstID int64, n int, at, gap float64) []*request.Request {
	out := make([]*request.Request, n)
	for k := range out {
		out[k] = request.New(firstID+int64(k), 300, 100, 200, at+float64(k)*gap)
	}
	return out
}

func assertEvenSpread(t *testing.T, label string, counts []int) {
	t.Helper()
	lo, hi := counts[0], counts[0]
	for _, c := range counts {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi-lo > 1 {
		t.Fatalf("%s: identical replicas received %v: the burst herded onto one replica", label, counts)
	}
}

// TestHerdSameInstantArrivals: 8 arrivals at one instant onto 4 idle
// identical replicas land 2 each, under both load-aware policies and through
// the admission gate (bestProbe's argmin is the placement there).
func TestHerdSameInstantArrivals(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"future-headroom", Config{Policy: FutureHeadroom}},
		{"least-loaded", Config{Policy: LeastLoaded}},
		{"admission-gate", Config{Policy: FutureHeadroom, Admission: &AdmissionConfig{TTFTBudget: 5}}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Replicas = replicas(4, 20_000)
			f := MustNew(tc.cfg)
			results := f.Serve(burst(1, 8, 0, 0), 1e9)
			assertEvenSpread(t, tc.name, f.RoutedCounts())
			finished := 0
			for _, res := range results {
				finished += len(res.Finished)
			}
			if finished != 8 || len(f.ShedRequests()) != 0 {
				t.Fatalf("%d of 8 finished, %d shed", finished, len(f.ShedRequests()))
			}
		})
	}
}

// TestHerdBurstWithinOneStep: the same on busy replicas. Four replicas decode
// identical preloaded batches in lock-step (one step is ~12 ms); a burst of 8
// arrivals 0.25 ms apart falls between two steps, so none of the placed
// requests has been queued by its engine when the next one is routed.
func TestHerdBurstWithinOneStep(t *testing.T) {
	for _, policy := range []Policy{FutureHeadroom, LeastLoaded} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			engines := lockstepReplicas(4, 20_000)
			for i, e := range engines {
				for k := 0; k < 6; k++ { // 400 tokens each: decoding well past the burst
					e.Submit(request.New(int64(1000*(i+1)+k), 300, 400, 512, 0))
				}
			}
			var f *Fleet
			f = MustNew(Config{
				Replicas: engines,
				Policy:   policy,
				OnRoute: func(*request.Request, int) {
					for i, rep := range f.reps {
						if rep.eng.RunningLen() == 0 {
							t.Errorf("replica %d is idle during the burst: the scenario no longer tests busy replicas", i)
						}
					}
				},
			})
			f.Serve(burst(1, 8, 1.0, 0.00025), 1e9)
			assertEvenSpread(t, policy.String(), f.RoutedCounts())
		})
	}
}

// TestHerdDeliveredMigrations: the decode side of a disaggregated cluster.
// Eight handoffs are issued and delivered one after another with no decode
// step in between; each delivery must be visible to the next handoff's
// decode pick. (Transfers still on the wire are not counted by probes — see
// Pool.probe — so the handoffs here land before the next one is issued.)
func TestHerdDeliveredMigrations(t *testing.T) {
	c := disaggCluster(t, 1, 4, nil, 1)
	c.start(0)
	const at = 0.05
	for _, r := range burst(1, 8, 0, 0) {
		r.EmitToken(at) // the prefill token: the request is ready to migrate
		c.handle(event{at: at, kind: evXfer, pool: c.decode, rep: 0, req: r})
		c.handle(event{at: at, kind: evDeliver, pool: c.decode, rep: c.handoffs.n - 1, req: r})
	}
	dp := c.pools[c.decode]
	assertEvenSpread(t, "decode pool", dp.RoutedCounts())
	for i, rep := range dp.reps {
		if rep.eng.WaitingLen() != 2 || rep.eng.QueueLen() != 0 {
			t.Fatalf("decode replica %d: waiting %d, queued %d; want 2 placed and none queued yet",
				i, rep.eng.WaitingLen(), rep.eng.QueueLen())
		}
	}
}

// placementLedger counts, per replica, what the cluster submitted to the
// engine and what a crash evacuated from it, from the recorder stream (Place
// and XferDeliver fire at exactly the submission sites).
type placementLedger struct {
	*obs.Collector
	submitted, evacuated map[[2]int]int
}

func newPlacementLedger() *placementLedger {
	return &placementLedger{
		Collector: obs.NewCollector(1),
		submitted: map[[2]int]int{},
		evacuated: map[[2]int]int{},
	}
}

func (l *placementLedger) Place(at float64, r *request.Request, pool, rep int, flavor string) {
	l.submitted[[2]int{pool, rep}]++
	l.Collector.Place(at, r, pool, rep, flavor)
}

func (l *placementLedger) XferDeliver(at float64, r *request.Request, pool, rep int) {
	l.submitted[[2]int{pool, rep}]++
	l.Collector.XferDeliver(at, r, pool, rep)
}

func (l *placementLedger) Crash(at float64, pool, rep, orphans int) {
	l.evacuated[[2]int{pool, rep}] += orphans
	l.Collector.Crash(at, pool, rep, orphans)
}

// probeCandidates are the two kinds of request a probe prices: a new arrival,
// whose entry comes from the fresh-request quantile the replica recorded at
// its last rebuild, and a crash orphan re-routed mid-output (Generated > 0),
// whose entry conditions on its own length through the live sampler.
func probeCandidates() []*request.Request {
	fresh := request.New(1_000_000, 800, 400, 512, 0)
	orphan := request.New(1_000_001, 800, 400, 512, 0)
	for k := 0; k < 37; k++ {
		orphan.EmitToken(0)
	}
	return []*request.Request{fresh, orphan}
}

// checkPlacementState runs between two events of a live cluster. For every
// accepting replica the warm estimator — whatever mix of rebuilds, splices
// and pure decode steps it has been through — must price each candidate, and
// the replica's own load, like an estimator built from scratch now and like
// the naive clone-and-sort reference: exactly if it does not lag, from below
// if it does. For every replica, accepting or not, the engine must hold
// exactly what was submitted to it and has not left. It returns how many of
// the warm estimators checked carried a spliced entry, and how many lagged.
func checkPlacementState(t *testing.T, c *Cluster, led *placementLedger, cands []*request.Request) (spliced, lagged int) {
	t.Helper()
	for _, p := range c.pools {
		naive := *p
		naive.cfg.NaiveProbe = true
		for _, rep := range p.accepting {
			if rep.estValid && rep.eng.WaitingLen() > rep.eng.QueueLen() {
				spliced++
			}
			if rep.estValid && rep.lag > 0 {
				lagged++
			}
			scratch := *rep // same engine, cold estimator: a from-scratch rebuild
			scratch.est = core.PeakEstimator{}
			scratch.moved(false)
			// The warm estimator is read through a copy and never made exact:
			// whether the run's next decision rebuilds it is the run's business.
			warm := *rep
			for _, cand := range cands {
				bound, exact := p.probeBound(&warm, cand)
				rebuilt, ref := p.probe(&scratch, cand), naive.probe(rep, cand)
				if rebuilt != ref || bound > ref || (exact && bound != ref) {
					t.Fatalf("pool %d replica %d: probe of a candidate %d tokens in: warm %v (exact %v, lag %d), rebuilt %v, naive %v",
						p.id, rep.idx, cand.Generated, bound, exact, warm.lag, rebuilt, ref)
				}
			}
			// load is always exact, so only an estimator that does not lag
			// can answer it without the rebuild the copy must not do.
			if rebuilt, ref := p.load(&scratch), naive.load(rep); rebuilt != ref || (warm.lag == 0 && p.load(&warm) != ref) {
				t.Fatalf("pool %d replica %d: load rebuilt %v, naive %v; the warm estimator (lag %d) must answer the same when it does not lag",
					p.id, rep.idx, rebuilt, ref, warm.lag)
			}
		}
		for _, rep := range p.reps {
			key := [2]int{p.id, rep.idx}
			res := rep.eng.Snapshot()
			left := len(res.Finished) + len(res.Failed) + len(res.TimedOut) + len(res.HandedOff) + led.evacuated[key]
			if on := rep.eng.WaitingLen() + rep.eng.RunningLen(); on != led.submitted[key]-left {
				t.Fatalf("pool %d replica %d: %d pending + %d queued + %d running, but %d submitted − %d left = %d",
					p.id, rep.idx, rep.eng.WaitingLen()-rep.eng.QueueLen(), rep.eng.QueueLen(), rep.eng.RunningLen(),
					led.submitted[key], left, led.submitted[key]-left)
			}
		}
	}
	return spliced, lagged
}

// TestPlacementCrossCheck interleaves placements, engine steps and crash
// evacuations through the real event loop — a monolithic fleet re-routing
// crash orphans directly, and the disaggregated admission pipeline under the
// conservation storm — and checks the estimator equivalence and the
// per-replica ledger after every arrival (ServeStream pulls the next arrival
// only after the previous one was placed, so the pull is the probe point).
// Requests finish between most consecutive probe points, so every value a
// replica keeps from its history window — the fresh-request quantile
// included — is compared with the naive probe's live read after the window
// moved; the run must have had such probe points.
func TestPlacementCrossCheck(t *testing.T) {
	sla := metrics.SLA{TTFT: 6, MTPOT: 1.5}
	scenarios := []struct {
		name  string
		build func(seed uint64, rec obs.Recorder) *Cluster
	}{
		{"monolithic-crashes", func(seed uint64, rec obs.Recorder) *Cluster {
			return MustNewCluster(ClusterConfig{
				Pools: []Config{{Replicas: replicas(4, 12_000), Policy: FutureHeadroom}},
				Faults: &FaultConfig{
					Schedule: faults.Generate(rng.New(seed), 0, 4, 2, 0.5, 8), Recover: true,
				},
				Recorder: rec,
			})
		}},
		{"disaggregated-admission-storm", func(seed uint64, rec obs.Recorder) *Cluster {
			return MustNewCluster(ClusterConfig{
				Pools: []Config{
					{Role: engine.RolePrefillOnly, Replicas: prefillReplicas(2, 20_000), Policy: FutureHeadroom},
					{Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(3, 12_000, seed), Policy: FutureHeadroom},
				},
				Link:      kv.MustNewLink(50e9, 0.002),
				Admission: &AdmissionConfig{TTFTBudget: sla.TTFT, Shed: true, Slack: 0.5},
				Faults:    stormFaults(seed),
				Recorder:  rec,
			})
		}},
	}
	for _, sc := range scenarios {
		for _, seed := range chaosSeeds(t) {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				led := newPlacementLedger()
				c := sc.build(seed, led)
				cands := probeCandidates()
				reqs := poissonReqs(350, 60, seed)
				i, spliced, lagged := 0, 0, 0
				// Probe points at which a replica probed before had finished
				// a request since: its window moved under what it kept.
				windowMoved := 0
				lastGen := map[*replica]uint64{}
				c.ServeStream(func() *request.Request {
					sp, lg := checkPlacementState(t, c, led, cands)
					spliced, lagged = spliced+sp, lagged+lg
					for _, p := range c.pools {
						for _, rep := range p.accepting {
							gen := rep.eng.History().Generation()
							if prev, ok := lastGen[rep]; ok && prev != gen {
								windowMoved++
							}
							lastGen[rep] = gen
						}
					}
					if i == len(reqs) {
						return nil
					}
					i++
					return reqs[i-1]
				}, 1e9)
				checkPlacementState(t, c, led, cands)
				if spliced == 0 {
					t.Fatal("no warm estimator ever carried a spliced placement: the run never exercised the splice")
				}
				if lagged == 0 {
					t.Fatal("no warm estimator ever lagged its engine at a probe point: the run never exercised the lower bound")
				}
				if windowMoved == 0 {
					t.Fatal("no request finished between two probes of one replica: the run never exercised a moved window")
				}
				if c.flt.crashes == 0 || c.flt.orphaned == 0 {
					t.Fatalf("%d crashes evacuated %d requests: the run never exercised crash evacuation", c.flt.crashes, c.flt.orphaned)
				}
			})
		}
	}
}

// TestPlacementCoresAgree: the sequential core and the batched core at 1 and
// 4 workers route a bursty stream — same-instant groups and sub-step gaps,
// where a placement's visibility decides the next pick — identically, under
// both load-aware policies.
func TestPlacementCoresAgree(t *testing.T) {
	stream := func(seed uint64) []*request.Request {
		reqs := poissonReqs(240, 40, seed)
		for i := range reqs {
			// Groups of 6 share the arrival instant of their first member but
			// for a 0.1 ms stagger on every second one.
			reqs[i].ArrivalTime = reqs[i-i%6].ArrivalTime + float64(i%2)*1e-4
		}
		return reqs
	}
	for _, policy := range []Policy{FutureHeadroom, LeastLoaded} {
		for _, seed := range chaosSeeds(t) {
			policy, seed := policy, seed
			t.Run(fmt.Sprintf("%v/seed=%d", policy, seed), func(t *testing.T) {
				trace := func(workers int) decisionTrace {
					var tr decisionTrace
					f := MustNew(Config{
						Replicas: replicas(4, 12_000),
						Policy:   policy,
						Workers:  workers,
						OnRoute: func(r *request.Request, rep int) {
							tr.routes = append(tr.routes, fmt.Sprintf("r%d req%d", rep, r.ID))
						},
					})
					results := f.Serve(stream(seed), 1e9)
					tr.report = fmt.Sprintf("%+v", f.Report(results, metrics.SLA{TTFT: 6, MTPOT: 1.5}))
					return tr
				}
				ref := trace(0)
				for _, w := range parallelWorkerCounts {
					compareTraces(t, fmt.Sprintf("workers=%d", w), trace(w), ref)
				}
			})
		}
	}
}
