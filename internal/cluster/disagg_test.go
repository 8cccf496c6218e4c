package cluster

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/rng"
)

func prefillReplicas(n, capacity int) []*engine.Engine {
	pm := testPerf()
	out := make([]*engine.Engine, n)
	for i := range out {
		out[i] = engine.MustNew(engine.Config{
			Perf: pm,
			// A prefill worker's requests vacate at the end of their own
			// prefill iteration: current-usage admission is the right
			// policy, future-peak reservation has nothing to reserve for.
			Scheduler:        core.MustNewAggressive(0.95),
			Role:             engine.RolePrefillOnly,
			CapacityOverride: capacity,
		})
	}
	return out
}

func decodeReplicas(n, capacity int, seed uint64) []*engine.Engine {
	pm := testPerf()
	out := make([]*engine.Engine, n)
	for i := range out {
		out[i] = engine.MustNew(engine.Config{
			Perf: pm,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(seed + uint64(i)),
			}),
			Role:             engine.RoleDecodeOnly,
			CapacityOverride: capacity,
		})
	}
	return out
}

func disaggCluster(t *testing.T, pn, dn int, link *kv.Link, seed uint64) *Cluster {
	t.Helper()
	return MustNewCluster(ClusterConfig{
		Pools: []Config{
			{Role: engine.RolePrefillOnly, Replicas: prefillReplicas(pn, 20_000), Policy: FutureHeadroom},
			{Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(dn, 50_000, seed), Policy: FutureHeadroom},
		},
		Link: link,
	})
}

func TestClusterTopologyValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	// A single pool must be mixed.
	if _, err := NewCluster(ClusterConfig{Pools: []Config{
		{Role: engine.RolePrefillOnly, Replicas: prefillReplicas(1, 10_000)},
	}}); err == nil {
		t.Fatal("single prefill-only pool accepted")
	}
	// Two pools must be prefill then decode.
	if _, err := NewCluster(ClusterConfig{Pools: []Config{
		{Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(1, 10_000, 1)},
		{Role: engine.RolePrefillOnly, Replicas: prefillReplicas(1, 10_000)},
	}}); err == nil {
		t.Fatal("decode-before-prefill accepted")
	}
	// The pool role must match its engines' role.
	if _, err := NewCluster(ClusterConfig{Pools: []Config{
		{Role: engine.RolePrefillOnly, Replicas: replicas(1, 10_000)},
		{Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(1, 10_000, 1)},
	}}); err == nil {
		t.Fatal("mixed engines in a prefill pool accepted")
	}
	// Three pools are not a supported topology.
	if _, err := NewCluster(ClusterConfig{Pools: []Config{
		{Role: engine.RoleMixed, Replicas: replicas(1, 10_000)},
		{Role: engine.RoleMixed, Replicas: replicas(1, 10_000)},
		{Role: engine.RoleMixed, Replicas: replicas(1, 10_000)},
	}}); err == nil {
		t.Fatal("three pools accepted")
	}
}

// TestDisaggTTFTAfterTransfer pins the report-attribution fix: in a
// disaggregated run, TTFT is measured from arrival to the first token
// *after* the KV-transfer delivery — never to prefill completion. With a
// deliberately slow link the distinction is macroscopic.
func TestDisaggTTFTAfterTransfer(t *testing.T) {
	const latency = 0.25
	c := disaggCluster(t, 1, 2, kv.MustNewLink(2e9, latency), 3)
	results := c.Serve(poissonReqs(60, 12, 3), 1e9)
	rep := c.Report(results, metrics.SLASmall)

	if rep.Finished != 60 {
		t.Fatalf("finished %d of 60", rep.Finished)
	}
	if rep.Handoffs == 0 {
		t.Fatal("no handoffs recorded")
	}
	if rep.MeanTransferDelay < latency {
		t.Fatalf("mean transfer delay %v below link latency %v", rep.MeanTransferDelay, latency)
	}
	var migrated int
	for _, res := range results {
		for _, r := range res.Finished {
			if r.DeliveredAt < 0 {
				continue // single-token request: finished on the prefill side
			}
			migrated++
			if r.DeliveredAt-r.PrefillDoneAt < latency-1e-9 {
				t.Fatalf("request %d delivered %v after prefill, below link latency %v",
					r.ID, r.DeliveredAt-r.PrefillDoneAt, latency)
			}
			// The SLA clock: first token at delivery, not prefill done.
			if got, want := r.TTFT(), r.DeliveredAt-r.ArrivalTime; got != want {
				t.Fatalf("request %d TTFT %v, want delivery-attributed %v", r.ID, got, want)
			}
			if r.TTFT() <= r.PrefillDoneAt-r.ArrivalTime {
				t.Fatalf("request %d TTFT %v not beyond prefill completion %v",
					r.ID, r.TTFT(), r.PrefillDoneAt-r.ArrivalTime)
			}
		}
	}
	if migrated == 0 {
		t.Fatal("no migrated request finished")
	}
	// The summary is built from the delivery-attributed timestamps.
	if rep.Summary.MeanTTFT <= 0 {
		t.Fatalf("summary TTFT empty: %+v", rep.Summary)
	}
}

// TestDisaggHandoffRecords checks the migration ledger: one complete record
// per multi-token request, routed to a real decode replica.
func TestDisaggHandoffRecords(t *testing.T) {
	c := MustNewCluster(ClusterConfig{
		Pools: []Config{
			{Role: engine.RolePrefillOnly, Replicas: prefillReplicas(2, 20_000), Policy: RoundRobin},
			{Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(2, 50_000, 7), Policy: LeastLoaded},
		},
		Link: kv.MustNewLink(100e9, 0.001),
	})
	reqs := poissonReqs(80, 20, 7)
	multiToken := 0
	for _, r := range reqs {
		if r.TrueOutputLen > 1 {
			multiToken++
		}
	}
	results := c.Serve(reqs, 1e9)
	finished := 0
	for _, res := range results {
		finished += len(res.Finished)
	}
	if finished != 80 {
		t.Fatalf("finished %d of 80", finished)
	}
	hs := c.Handoffs()
	if len(hs) == 0 || len(hs) != multiToken {
		t.Fatalf("handoffs %d, want one per multi-token request (%d)", len(hs), multiToken)
	}
	for _, h := range hs {
		if h.FromReplica < 0 || h.FromReplica >= 2 || h.ToReplica < 0 || h.ToReplica >= 2 {
			t.Fatalf("handoff replica indexes out of range: %+v", h)
		}
		if h.DeliveredAt < h.PrefillDoneAt {
			t.Fatalf("handoff delivered before prefill done: %+v", h)
		}
		if !h.Req.Migrated && h.Req.DeliveredAt < 0 {
			t.Fatalf("handoff request never delivered: %+v", h.Req)
		}
	}
	// Routed counts: every request routes once into the prefill pool, and
	// every multi-token request once into the decode pool.
	pre, dec := c.Pool(0).RoutedCounts(), c.Pool(1).RoutedCounts()
	if pre[0]+pre[1] != 80 {
		t.Fatalf("prefill pool routed %v, want 80 total", pre)
	}
	if dec[0]+dec[1] != len(hs) {
		t.Fatalf("decode pool routed %v, want %d total", dec, len(hs))
	}
}

// TestDisaggDualPlanners: each pool sizes itself with its own SLA planner —
// the prefill pool against TTFT, the decode pool against TPOT — and both
// leave an evaluation trace without ever dropping below one replica.
func TestDisaggDualPlanners(t *testing.T) {
	sla := metrics.SLA{TTFT: 6, MTPOT: 1.2}
	c := MustNewCluster(ClusterConfig{
		Pools: []Config{
			{
				Role: engine.RolePrefillOnly, Replicas: prefillReplicas(3, 20_000), Policy: FutureHeadroom,
				Planner: &PlannerConfig{SLA: sla, Min: 1, Max: 3, Interval: 5, Predictor: HoltPredictor, ActivationDelay: 1},
			},
			{
				Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(4, 20_000, 11), Policy: FutureHeadroom,
				Planner: &PlannerConfig{SLA: sla, Min: 1, Max: 4, Interval: 5, Predictor: HoltPredictor, ActivationDelay: 1},
			},
		},
		Link: kv.MustNewLink(50e9, 0.002),
	})
	results := c.Serve(poissonReqs(300, 30, 11), 1e9)
	finished := 0
	for _, res := range results {
		finished += len(res.Finished)
	}
	if finished != 300 {
		t.Fatalf("finished %d of 300 under dual planners", finished)
	}
	for i := 0; i < 2; i++ {
		hist := c.Pool(i).PlanHistory()
		if len(hist) == 0 {
			t.Fatalf("pool %d planner left no trace", i)
		}
		for _, s := range hist {
			if s.Target < 1 || s.Active < 1 {
				t.Fatalf("pool %d sample %+v dropped below one replica", i, s)
			}
		}
	}
	// The decode pool owns residency: under this load it must have wanted
	// more than its minimum at some point.
	maxTarget := 0
	for _, s := range c.Pool(1).PlanHistory() {
		if s.Target > maxTarget {
			maxTarget = s.Target
		}
	}
	if maxTarget < 2 {
		t.Fatalf("decode planner never scaled beyond one replica: %+v", c.Pool(1).PlanHistory())
	}
	rep := c.Report(results, sla)
	if len(rep.Pools) != 2 || rep.Pools[0].Role != engine.RolePrefillOnly || rep.Pools[1].Role != engine.RoleDecodeOnly {
		t.Fatalf("report pool breakdown wrong: %+v", rep.Pools)
	}
	if rep.ReplicaSeconds <= 0 || rep.Pools[0].ReplicaSeconds+rep.Pools[1].ReplicaSeconds != rep.ReplicaSeconds {
		t.Fatalf("pool replica-seconds do not sum: %+v", rep)
	}
}

// TestHandoffLogRecordsDoNotMove pins what the event handlers rely on: an
// index and an address taken before later appends still name the same
// record across chunk boundaries, and Handoffs() lists them in issue order.
func TestHandoffLogRecordsDoNotMove(t *testing.T) {
	var c Cluster
	n := 2*handoffChunk + 3
	addrs := make([]*Handoff, n)
	for i := 0; i < n; i++ {
		if idx := c.handoffs.add(Handoff{FromReplica: i}); idx != i {
			t.Fatalf("add #%d returned index %d", i, idx)
		}
		addrs[i] = c.handoffs.at(i)
	}
	hs := c.Handoffs()
	if len(hs) != n {
		t.Fatalf("Handoffs() has %d records, want %d", len(hs), n)
	}
	for i := 0; i < n; i++ {
		if c.handoffs.at(i) != addrs[i] || addrs[i].FromReplica != i || hs[i].FromReplica != i {
			t.Fatalf("record %d moved or is out of order", i)
		}
	}
}
