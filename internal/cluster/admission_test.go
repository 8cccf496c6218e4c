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
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

func TestAdmissionValidation(t *testing.T) {
	pools := func() []Config {
		return []Config{{Replicas: replicas(1, 10_000), Policy: FutureHeadroom}}
	}
	bad := []AdmissionConfig{
		{TTFTBudget: -1},
		{MaxProbe: -0.5},
		{TTFTBudget: 1, DecodeMaxProbe: -1},
		{Slack: -1},
		{Shed: true}, // shedding needs a budget
		// Non-finite values: NaN passes every "< 0" check.
		{TTFTBudget: math.NaN()},
		{TTFTBudget: math.Inf(1), Shed: true},
		{TTFTBudget: 5, MaxProbe: math.NaN()},
		{TTFTBudget: 5, DecodeMaxProbe: math.Inf(1)},
		{TTFTBudget: 5, Slack: math.NaN()},
		{TTFTBudget: 5, ClassBucket: math.Inf(1)},
	}
	for i, cfg := range bad {
		cfg := cfg
		if _, err := NewCluster(ClusterConfig{Pools: pools(), Admission: &cfg}); err == nil {
			t.Fatalf("bad admission config %d accepted: %+v", i, cfg)
		}
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
			var h admitHeap
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
					h.push(admitItem{deadline: dl, seq: seq})
					model = append(model, ref{deadline: dl, seq: seq})
				case r.Float64() < 0.7: // retry-pop the EDF head
					got := h.pop()
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
					for h.Len() > 0 && h.top().deadline < now {
						got := h.pop()
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

// TestAdmitQueueClassRankOrder pins the class-aware EDF tie-break at the
// heap level. Without bucketing (bucket = deadline, the ClassBucket 0
// default): within one exact deadline, lower class ranks pop first
// (interactive ahead of best-effort), FIFO inside one rank, and the
// deadline still dominates — a later-deadline interactive request never
// jumps an earlier-deadline best-effort one. With bucketing, class rank
// dominates inside one bucket even across distinct deadlines, and EDF
// still orders within one rank.
func TestAdmitQueueClassRankOrder(t *testing.T) {
	var h admitHeap
	push := func(deadline float64, rank int, seq int64) {
		h.push(admitItem{deadline: deadline, bucket: deadline, rank: rank, seq: seq})
	}
	push(5, 1, 1) // best-effort, deadline 5
	push(5, 0, 2) // interactive, same deadline, later arrival
	push(5, 1, 3) // best-effort, same deadline, later arrival
	push(3, 1, 4) // best-effort, earlier deadline: pops before everything
	push(5, 0, 5) // interactive, same deadline, latest arrival
	want := []int64{4, 2, 5, 1, 3}
	for i, w := range want {
		got := h.pop()
		if got.seq != w {
			t.Fatalf("pop %d: seq %d, want %d", i, got.seq, w)
		}
	}

	// Bucketed: deadlines 5.1/5.9 share bucket 5 (width 1s), so the
	// later-deadline interactive request jumps the earlier best-effort
	// one; deadline 6.2 is the next bucket and pops last regardless of
	// rank; EDF orders the two interactive items inside their rank.
	bucketed := func(deadline float64, rank int, seq int64) {
		h.push(admitItem{deadline: deadline, bucket: math.Floor(deadline / 1.0), rank: rank, seq: seq})
	}
	bucketed(5.1, 1, 10) // best-effort, earliest deadline in the bucket
	bucketed(5.9, 0, 11) // interactive, same bucket: jumps it
	bucketed(5.5, 0, 12) // interactive, same bucket, earlier deadline
	bucketed(6.2, 0, 13) // interactive, next bucket: pops last
	want = []int64{12, 11, 10, 13}
	for i, w := range want {
		got := h.pop()
		if got.seq != w {
			t.Fatalf("bucketed pop %d: seq %d, want %d", i, got.seq, w)
		}
	}
}

// TestClassAwareShedTieBreak is the end-to-end overload-policy claim
// (ROADMAP open item): when two held requests carry equal slack — here,
// deadlines within one ClassBucket, the way real staggered arrivals tie —
// and one placement slot frees, the interactive request is released and
// the best-effort one is the one shed; with no ClassRank policy the pure
// EDF order (best-effort arrived first, earlier deadline, so it wins)
// reasserts itself.
func TestClassAwareShedTieBreak(t *testing.T) {
	interactiveRank := func(class string) int {
		if class == "interactive" {
			return 0
		}
		return 1
	}
	run := func(rank func(string) int) (outcomes map[string]request.Outcome) {
		eng := engine.MustNew(engine.Config{
			Perf: testPerf(),
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(1),
			}),
			CapacityOverride: 6_000,
		})
		c := MustNewCluster(ClusterConfig{
			Pools: []Config{{Replicas: []*engine.Engine{eng}, Policy: FutureHeadroom}},
			// MaxProbe 0.01 never passes, so every placement goes through
			// the idle-liveness path — which releases exactly one held head
			// per idle moment: a single serving slot the tie-break decides.
			// ClassBucket 1s: the staggered arrivals' deadlines (6.5, 6.6)
			// land in one bucket, the realistic "equal slack" tie.
			Admission: &AdmissionConfig{TTFTBudget: 6, MaxProbe: 0.01, Shed: true, ClassRank: rank, ClassBucket: 1},
		})
		// The occupier blocks the replica until ~1.6s; whichever held
		// request wins the slot then runs long enough (500 output tokens,
		// ~6s of decode) that the loser's deadline expires before the next
		// capacity event — exactly one of the two can be served.
		occupier := request.New(1, 2_000, 120, 256, 0)
		batch := request.New(2, 500, 500, 512, 0.5)       // best-effort, arrives first (deadline 6.5)
		interactive := request.New(3, 500, 500, 512, 0.6) // interactive, arrives second (deadline 6.6)
		batch.Class, interactive.Class = "batch", "interactive"
		c.Serve([]*request.Request{occupier, batch, interactive}, 1e9)
		if c.HeldRequests() != 0 {
			t.Fatal("requests left held after Serve")
		}
		if occupier.Outcome != request.OutcomeCompleted {
			t.Fatalf("occupier outcome %v", occupier.Outcome)
		}
		return map[string]request.Outcome{
			"batch":       batch.Outcome,
			"interactive": interactive.Outcome,
		}
	}

	ranked := run(interactiveRank)
	if ranked["interactive"] != request.OutcomeCompleted || ranked["batch"] != request.OutcomeShed {
		t.Fatalf("class-ranked outcomes %v, want interactive completed and batch shed", ranked)
	}
	fifo := run(nil)
	if fifo["batch"] != request.OutcomeCompleted || fifo["interactive"] != request.OutcomeShed {
		t.Fatalf("FIFO outcomes %v, want batch completed and interactive shed (pure EDF+FIFO)", fifo)
	}
}

// TestAdmitQueueZeroAllocs pins the deadline-heap hot path: once the heap's
// storage is warm, the push/pop cycle of the retry loop allocates nothing.
func TestAdmitQueueZeroAllocs(t *testing.T) {
	var h admitHeap
	r := request.New(1, 100, 10, 64, 0)
	for i := 0; i < 512; i++ {
		h.push(admitItem{r: r, deadline: float64(i % 97), seq: int64(i)})
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		it := h.pop()
		it.deadline = float64(i % 89)
		it.seq = int64(i)
		i++
		h.push(it)
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
				if r.Outcome != request.OutcomeShed || r.ShedAt < 0 {
					t.Fatalf("shed request %d outcome %v at %v", r.ID, r.Outcome, r.ShedAt)
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
	c := MustNewCluster(ClusterConfig{
		Pools:     []Config{{Replicas: replicas(1, 1_000), Policy: FutureHeadroom}},
		Admission: &AdmissionConfig{TTFTBudget: 1e6, MaxProbe: 0.5},
	})
	// Footprint beyond MaxProbe×capacity on an idle engine: the gate says
	// no, but nothing will ever free — force-placed, then served (it fits
	// physical capacity).
	r := request.New(1, 600, 4, 64, 0)
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
