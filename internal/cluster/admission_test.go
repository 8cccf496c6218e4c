package cluster

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/minheap"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

func TestAdmissionValidation(t *testing.T) {
	pools := func() []Config {
		return []Config{{Replicas: replicas(1, 10_000), Policy: FutureHeadroom}}
	}
	for _, tc := range []struct {
		name string
		cfg  AdmissionConfig
	}{
		{"negative budget", AdmissionConfig{TTFTBudget: -1}},
		{"negative decode gate", AdmissionConfig{TTFTBudget: 1, DecodeMaxProbe: -1}},
		{"negative slack", AdmissionConfig{Slack: -1}},
		{"shedding without a budget", AdmissionConfig{Shed: true}},
		// Non-finite values: NaN passes every "< 0" check.
		{"NaN budget", AdmissionConfig{TTFTBudget: math.NaN()}},
		{"infinite budget", AdmissionConfig{TTFTBudget: math.Inf(1), Shed: true}},
		{"NaN decode gate", AdmissionConfig{TTFTBudget: 5, DecodeMaxProbe: math.NaN()}},
		{"infinite decode gate", AdmissionConfig{TTFTBudget: 5, DecodeMaxProbe: math.Inf(1)}},
		{"NaN slack", AdmissionConfig{TTFTBudget: 5, Slack: math.NaN()}},
		{"infinite slack", AdmissionConfig{TTFTBudget: 5, Slack: math.Inf(1)}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCluster(ClusterConfig{Pools: pools(), Admission: &tc.cfg}); err == nil {
				t.Errorf("%s accepted: %+v", tc.name, tc.cfg)
			}
		})
	}
	if _, err := NewCluster(ClusterConfig{Pools: pools(), Admission: &AdmissionConfig{TTFTBudget: 8, Shed: true}}); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitQueueEDFProperty drives the deadline heap through randomized
// push / retry-pop / shed interleavings and pins the EDF contract against a
// reference model: every pop returns the earliest-deadline held request
// (FIFO on ties), and an expiry sweep at time `now` removes exactly the
// expired prefix of that order.
func TestAdmitQueueEDFProperty(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rng.New(seed)
			h := minheap.New(admitBefore)
			var seq int64
			type ref struct {
				deadline float64
				seq      int64
			}
			var model []ref
			sortModel := func() {
				sort.SliceStable(model, func(i, j int) bool {
					if model[i].deadline != model[j].deadline {
						return model[i].deadline < model[j].deadline
					}
					return model[i].seq < model[j].seq
				})
			}
			now := 0.0
			for op := 0; op < 3000; op++ {
				switch {
				case h.Len() == 0 || r.Float64() < 0.5: // push
					// Coarse deadlines (now + small grid) force plenty of ties.
					dl := now + float64(r.Intn(8))
					seq++
					h.Push(admitItem{deadline: dl, seq: seq})
					model = append(model, ref{deadline: dl, seq: seq})
				case r.Float64() < 0.7: // retry-pop the EDF head
					got := h.Pop()
					sortModel()
					want := model[0]
					model = model[1:]
					if got.deadline != want.deadline || got.seq != want.seq {
						t.Fatalf("op %d: pop (%v, %d), want (%v, %d)",
							op, got.deadline, got.seq, want.deadline, want.seq)
					}
				default: // shed sweep: everything with deadline < now expires
					now += r.Float64() * 2
					sortModel()
					for h.Len() > 0 && h.Top().deadline < now {
						got := h.Pop()
						want := model[0]
						model = model[1:]
						if got.deadline != want.deadline || got.seq != want.seq {
							t.Fatalf("op %d: shed (%v, %d), want (%v, %d)",
								op, got.deadline, got.seq, want.deadline, want.seq)
						}
					}
					if len(model) > 0 && model[0].deadline < now {
						t.Fatalf("op %d: heap kept expired deadline %v at now %v",
							op, model[0].deadline, now)
					}
				}
			}
			if h.Len() != len(model) {
				t.Fatalf("final sizes differ: heap %d, model %d", h.Len(), len(model))
			}
		})
	}
}

// TestAdmitQueueZeroAllocs pins the deadline-heap hot path: once the heap's
// storage is warm, the push/pop cycle of the retry loop allocates nothing.
func TestAdmitQueueZeroAllocs(t *testing.T) {
	h := minheap.New(admitBefore)
	r := request.New(1, 100, 10, 64, 0)
	for i := 0; i < 512; i++ {
		h.Push(admitItem{r: r, deadline: float64(i % 97), seq: int64(i)})
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		it := h.Pop()
		it.deadline = float64(i % 89)
		it.seq = int64(i)
		i++
		h.Push(it)
	})
	if allocs != 0 {
		t.Fatalf("admit heap push/pop allocates %v per op, want 0", allocs)
	}
}

func admissionCluster(pn, dn, capacity int, seed uint64, adm *AdmissionConfig, link *kv.Link) *Cluster {
	return MustNewCluster(ClusterConfig{
		Pools: []Config{
			{Role: engine.RolePrefillOnly, Replicas: prefillReplicas(pn, capacity), Policy: FutureHeadroom},
			{Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(dn, capacity, seed), Policy: FutureHeadroom},
		},
		Link:      link,
		Admission: adm,
	})
}

// TestAdmissionConservation is the tentpole's conservation law: under a
// deliberately overloaded stream with shedding enabled, every arrival ends
// exactly once in {completed, shed} — nothing is lost, duplicated, or left
// held — and no shed request ever had a KV transfer booked for it.
func TestAdmissionConservation(t *testing.T) {
	const n = 300
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := admissionCluster(1, 2, 10_000, seed,
				&AdmissionConfig{TTFTBudget: 5, Shed: true},
				kv.MustNewLink(50e9, 0.002))
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
					t.Fatalf("unexpected failures (%d) or timeouts (%d)", len(res.Failed), len(res.TimedOut))
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
				if r.Outcome != request.OutcomeShed || r.EndedAt < 0 {
					t.Fatalf("shed request %d outcome %v at %v", r.ID, r.Outcome, r.EndedAt)
				}
				shed[r.ID] = true
			}
			if got := len(finished) + len(shed); got != n {
				t.Fatalf("%d finished + %d shed = %d, want %d", len(finished), len(shed), got, n)
			}
			if len(shed) == 0 {
				t.Fatal("overloaded run shed nothing; the test exercises no admission pressure")
			}
			if c.HeldRequests() != 0 {
				t.Fatalf("%d requests still held after Serve", c.HeldRequests())
			}
			// The acceptance criterion: zero KV transfers booked for requests
			// that are later shed — the boundary check runs before booking.
			for _, h := range c.Handoffs() {
				if shed[h.Req.ID] {
					t.Fatalf("shed request %d has a booked KV transfer", h.Req.ID)
				}
				if h.Req.Outcome == request.OutcomeShed {
					t.Fatalf("handoff ledger holds shed request %d", h.Req.ID)
				}
			}
		})
	}
}

// TestAdmissionShedProtectsServedTTFT is the overload-demo claim at test
// scale: on the same overloaded stream, the shedding cluster keeps the p99
// TTFT of *served* requests inside the budget and completes at least as
// many SLA-conforming requests as the no-admission cluster, which serves
// everyone late.
func TestAdmissionShedProtectsServedTTFT(t *testing.T) {
	const n, budget = 500, 6.0
	sla := metrics.SLA{TTFT: budget, MTPOT: 1.5}
	run := func(adm *AdmissionConfig, seed uint64) Report {
		c := admissionCluster(1, 2, 10_000, seed, adm, kv.MustNewLink(50e9, 0.002))
		return c.Report(c.Serve(poissonReqs(n, 80, seed), 1e9), sla)
	}
	shedRep := run(&AdmissionConfig{TTFTBudget: budget, Shed: true, Slack: 0.5}, 3)
	noShed := run(nil, 3)

	if shedRep.Shed == 0 {
		t.Fatal("shed mode refused nothing under overload")
	}
	if shedRep.Summary.P99TTFT > budget {
		t.Fatalf("served p99 TTFT %.2fs blows the %vs budget despite shedding", shedRep.Summary.P99TTFT, budget)
	}
	if noShed.Summary.P99TTFT <= budget {
		t.Fatalf("no-shed p99 TTFT %.2fs unexpectedly inside budget; overload too weak to compare", noShed.Summary.P99TTFT)
	}
	if shedRep.Summary.GoodCompletionRate() < noShed.Summary.GoodCompletionRate() {
		t.Fatalf("shedding goodput %.3f req/s below no-shed %.3f req/s",
			shedRep.Summary.GoodCompletionRate(), noShed.Summary.GoodCompletionRate())
	}
}

// TestHandoffIssueOrderBooking is the KV-link ordering regression: engine
// steps execute in start-time order while handoffs issue at step *end*
// times, so eager booking wrote the wire in engine-step order. A long
// prefill starting early and a short prefill starting late used to book
// long-first; with issue-ordered booking the short one's transfer must not
// queue behind a handoff issued after it.
func TestHandoffIssueOrderBooking(t *testing.T) {
	link := kv.MustNewLink(50e9, 0.002)
	c := MustNewCluster(ClusterConfig{
		Pools: []Config{
			{Role: engine.RolePrefillOnly, Replicas: prefillReplicas(2, 20_000), Policy: RoundRobin},
			{Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(1, 50_000, 1), Policy: FutureHeadroom},
		},
		Link: link,
	})
	long := request.New(1, 3000, 4, 64, 0)    // rep0: long prefill, issues late
	short := request.New(2, 200, 4, 64, 0.05) // rep1: short prefill, issues early
	c.Serve([]*request.Request{long, short}, 1e9)

	hs := c.Handoffs()
	if len(hs) != 2 {
		t.Fatalf("handoffs %d, want 2", len(hs))
	}
	byID := map[int64]Handoff{}
	for _, h := range hs {
		byID[h.Req.ID] = h
	}
	hl, hsrt := byID[1], byID[2]
	if hsrt.PrefillDoneAt >= hl.PrefillDoneAt {
		t.Fatalf("scenario broken: short prefill done %v not before long %v", hsrt.PrefillDoneAt, hl.PrefillDoneAt)
	}
	// The short handoff was issued first, so it books first: its delivery
	// is exactly one unqueued transfer after its issue, and it lands before
	// the long prefill even finishes.
	bpt := c.Pool(1).reps[0].eng.Perf().Spec().KVBytesPerToken()
	wire := link.TransferTime(int64(short.InputLen+1) * bpt)
	if got, want := hsrt.DeliveredAt-hsrt.PrefillDoneAt, wire; math.Abs(got-want) > 1e-9 {
		t.Fatalf("short handoff waited on the wire: delay %v, want unqueued %v", got, want)
	}
	if hsrt.DeliveredAt >= hl.PrefillDoneAt {
		t.Fatalf("short handoff delivered %v after the long handoff issued %v — booked in step order",
			hsrt.DeliveredAt, hl.PrefillDoneAt)
	}
}

// TestHandoffSimultaneousIssueOrder pins the tie-break: two handoffs issued
// at the exact same instant from different replicas book deterministically
// in request order (arrival, then ID), not in event-heap insertion order.
func TestHandoffSimultaneousIssueOrder(t *testing.T) {
	link := kv.MustNewLink(5e9, 0.001) // slow enough that queueing is visible
	c := MustNewCluster(ClusterConfig{
		Pools: []Config{
			{Role: engine.RolePrefillOnly, Replicas: prefillReplicas(2, 20_000), Policy: RoundRobin},
			{Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(1, 50_000, 2), Policy: FutureHeadroom},
		},
		Link: link,
	})
	a := request.New(1, 800, 4, 64, 0) // identical prompts, same arrival:
	b := request.New(2, 800, 4, 64, 0) // both prefills finish at the same clock
	c.Serve([]*request.Request{a, b}, 1e9)

	hs := c.Handoffs()
	if len(hs) != 2 {
		t.Fatalf("handoffs %d, want 2", len(hs))
	}
	byID := map[int64]Handoff{}
	for _, h := range hs {
		byID[h.Req.ID] = h
	}
	ha, hb := byID[1], byID[2]
	if ha.PrefillDoneAt != hb.PrefillDoneAt {
		t.Fatalf("scenario broken: prefills done at %v and %v, want simultaneous", ha.PrefillDoneAt, hb.PrefillDoneAt)
	}
	if ha.DeliveredAt >= hb.DeliveredAt {
		t.Fatalf("simultaneous handoffs booked out of request order: id1 at %v, id2 at %v",
			ha.DeliveredAt, hb.DeliveredAt)
	}
}

// TestPlannerShedSignal: admission sheds feed the pool planner's evaluation
// trace, and a shedding interval never scales the pool in.
func TestPlannerShedSignal(t *testing.T) {
	sla := metrics.SLA{TTFT: 5, MTPOT: 1.5}
	c := MustNewCluster(ClusterConfig{
		Pools: []Config{
			{
				Role: engine.RolePrefillOnly, Replicas: prefillReplicas(2, 20_000), Policy: FutureHeadroom,
				Planner: &PlannerConfig{SLA: sla, Min: 1, Max: 2, Interval: 5, Predictor: HoltPredictor},
			},
			{
				Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(2, 20_000, 9), Policy: FutureHeadroom,
				Planner: &PlannerConfig{SLA: sla, Min: 1, Max: 2, Interval: 5, Predictor: HoltPredictor},
			},
		},
		Link:      kv.MustNewLink(50e9, 0.002),
		Admission: &AdmissionConfig{TTFTBudget: sla.TTFT, Shed: true},
	})
	c.Serve(poissonReqs(400, 80, 9), 1e9)
	if len(c.ShedRequests()) == 0 {
		t.Fatal("overloaded planner run shed nothing")
	}
	sawShed := false
	for _, p := range []int{0, 1} {
		for _, s := range c.Pool(p).PlanHistory() {
			if s.Shed > 0 {
				sawShed = true
				if s.Target < s.Active {
					t.Fatalf("pool %d scaled in during a shedding interval: %+v", p, s)
				}
			}
		}
	}
	if !sawShed {
		t.Fatal("no planner sample recorded the shed-rate signal")
	}
}

// TestAdmissionIdleLiveness: an arrival no probe gate would pass must still
// terminate when the cluster is idle — the pipeline force-places it instead
// of holding forever (the engine then judges it).
func TestAdmissionIdleLiveness(t *testing.T) {
	eng := engine.MustNew(engine.Config{
		Perf: testPerf(),
		// Current-usage admission: the engine takes what physically fits,
		// whatever the request's cap.
		Scheduler:        core.MustNewAggressive(0.95),
		CapacityOverride: 1_000,
	})
	c := MustNewCluster(ClusterConfig{
		Pools:     []Config{{Replicas: []*engine.Engine{eng}, Policy: FutureHeadroom}},
		Admission: &AdmissionConfig{TTFTBudget: 1e6},
	})
	// On a cold window the probe predicts the 512-token cap: 600 + 512 over
	// a 1000-token capacity, so the gate says no, but nothing will ever free
	// — force-placed, then served (its prompt fits physical capacity).
	r := request.New(1, 600, 4, 512, 0)
	results := c.Serve([]*request.Request{r}, 1e9)
	total := 0
	for _, res := range results {
		total += len(res.Finished)
	}
	if total != 1 || r.Outcome != request.OutcomeCompleted {
		t.Fatalf("idle-cluster arrival not served: finished %d, outcome %v", total, r.Outcome)
	}
	if c.HeldRequests() != 0 {
		t.Fatal("request left held on an idle cluster")
	}
}

// TestBoundaryShedBooksNoTransfer exercises the prefill→transfer boundary:
// a fused prefill completes several prompts at once onto a slow serialized
// wire, so the expected delivery of the later handoffs overruns their TTFT
// deadlines. Those must be shed *before* booking — the link carries only
// deadline-feasible transfers, and every booked delivery lands in budget.
func TestBoundaryShedBooksNoTransfer(t *testing.T) {
	const budget = 1.2
	link := kv.MustNewLink(2e9, 0) // ~0.2s per ~800-token KV footprint
	c := MustNewCluster(ClusterConfig{
		Pools: []Config{
			{Role: engine.RolePrefillOnly, Replicas: prefillReplicas(1, 50_000), Policy: FutureHeadroom},
			{Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(1, 50_000, 5), Policy: FutureHeadroom},
		},
		Link:      link,
		Admission: &AdmissionConfig{TTFTBudget: budget, Shed: true},
	})
	var reqs []*request.Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, request.New(int64(i+1), 800, 4, 64, 0))
	}
	c.Serve(reqs, 1e9)

	rep := c.Report([]*engine.Result{}, metrics.SLA{TTFT: budget, MTPOT: 1.5})
	if rep.ShedBoundary == 0 {
		t.Fatalf("no boundary sheds on a saturated wire: %+v", rep)
	}
	shed := map[int64]bool{}
	for _, r := range c.ShedRequests() {
		shed[r.ID] = true
		if r.Generated == 0 && r.PrefillDoneAt >= 0 {
			t.Fatalf("handed-off request %d shed without its prefill token", r.ID)
		}
	}
	if len(c.Handoffs()) == 0 {
		t.Fatal("every handoff shed; the scenario should book the early ones")
	}
	for _, h := range c.Handoffs() {
		if shed[h.Req.ID] {
			t.Fatalf("shed request %d has a booked transfer", h.Req.ID)
		}
		if dl := h.Req.TTFTDeadline; h.DeliveredAt > dl {
			t.Fatalf("booked transfer for request %d delivers at %v past its deadline %v",
				h.Req.ID, h.DeliveredAt, dl)
		}
	}
}
