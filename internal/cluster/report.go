package cluster

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/request"
)

// Report aggregates one cluster run: the per-replica engine results rolled
// up into fleet-level SLA attainment, plus the autoscaling cost side
// (replica-seconds) that single-engine results cannot express. In a
// disaggregated run the TTFT entering the summary is attributed from
// arrival to the first token *after* the KV-transfer delivery (the engine
// shifts the SLA clock at RecordMigration), never to prefill completion —
// users see nothing before the handoff lands.
type Report struct {
	// Summary is the fleet-level SLA attainment over every request the
	// cluster finished (or abandoned), replicas merged across pools.
	Summary metrics.Summary
	// Replicas is the total replica count across pools; ReplicaSeconds the
	// provisioned time integral (the autoscaler's cost).
	Replicas       int
	ReplicaSeconds float64
	// CostSeconds is the normalized provisioning cost: replica-seconds
	// scaled by each replica's flavor cost weight (1.0 = one A100-80G
	// replica-second). Equal to ReplicaSeconds on an all-A100 fleet; the
	// axis the cost-aware heterogeneous planner minimizes.
	CostSeconds float64
	// ScaleOuts / ScaleIns count autoscaler decisions across pools.
	ScaleOuts, ScaleIns int
	// RoutedCounts is requests per replica, pool-major; Imbalance their
	// coefficient of variation within the entry pool.
	RoutedCounts []int
	Imbalance    float64
	// Finished / Failed / TimedOut are cluster totals.
	Finished, Failed, TimedOut int
	// Shed counts admission-control refusals (Summary counts each as a
	// TTFT violation with zero good tokens); ShedFront were refused at the
	// cluster front before any engine saw them, ShedBoundary at the
	// prefill→transfer boundary after prefill but before the KV transfer
	// was booked.
	Shed, ShedFront, ShedBoundary int
	// Duration is the simulated span of the run.
	Duration float64

	// Pools breaks the totals down per pool (one entry for a monolithic
	// fleet).
	Pools []PoolReport
	// Handoffs counts completed KV migrations; MeanTransferDelay is the
	// mean simulated prefill→decode delivery delay (0 when monolithic).
	Handoffs          int
	MeanTransferDelay float64
}

// PoolReport is one pool's share of a cluster report.
type PoolReport struct {
	Role                engine.Role
	Replicas            int
	ReplicaSeconds      float64
	CostSeconds         float64
	ScaleOuts, ScaleIns int
	RoutedCounts        []int
	// Flavors describes the pool's replica flavor groups (one entry for a
	// homogeneous pool).
	Flavors []FlavorInfo
}

// Report rolls up per-replica results against an SLA. Call after Serve with
// the results it returned (pool-major order).
func (c *Cluster) Report(results []*engine.Result, sla metrics.SLA) Report {
	// finished is sized exactly: grown by append it would cost a
	// count-dependent multiple of its final size.
	nFinished := 0
	for _, res := range results {
		nFinished += len(res.Finished)
	}
	finished := make([]*request.Request, 0, nFinished)
	var timedOut []*request.Request
	failed := 0
	for _, res := range results {
		finished = append(finished, res.Finished...)
		timedOut = append(timedOut, res.TimedOut...)
		failed += len(res.Failed)
	}
	end := c.endAt
	if end <= c.startAt {
		end = c.startAt + 1e-9 // degenerate empty run: keep Summarize happy
	}
	sum := metrics.Summarize(finished, sla, c.startAt, end)
	sum.AddTimedOut(timedOut, c.startAt, end)
	if c.adm != nil {
		sum.AddShed(c.adm.shedList, c.startAt, end)
	}
	sum.CostSeconds = c.CostSeconds()
	if c.flt != nil {
		sum.AddLost(c.flt.lost)
		sum.Crashes = c.flt.crashes
		sum.Orphaned = c.flt.orphaned
		sum.TransferRetries = c.flt.transferRetries
		sum.RePrefills = c.flt.rePrefills
		if c.flt.recovered > 0 {
			sum.MeanTimeToRecover = c.flt.downSum / float64(c.flt.recovered)
		}
		// Recovered/ReShed are per-request outcomes: a retried request
		// (Retries > 0) either finished somewhere or was shed the second
		// time around.
		for _, r := range finished {
			if r.Retries > 0 {
				sum.Recovered++
			}
		}
		if c.adm != nil {
			for _, r := range c.adm.shedList {
				if r.Retries > 0 {
					sum.ReShed++
				}
			}
		}
	}
	r := Report{
		Summary:        sum,
		ReplicaSeconds: c.ReplicaSeconds(),
		CostSeconds:    sum.CostSeconds,
		Imbalance:      c.pools[c.entry].Imbalance(),
		Finished:       len(finished),
		Failed:         failed,
		TimedOut:       len(timedOut),
		Duration:       c.Duration(),
		Handoffs:       c.handoffs.n,
	}
	if c.adm != nil {
		r.Shed = len(c.adm.shedList)
		r.ShedFront = c.adm.frontSheds
		r.ShedBoundary = c.adm.boundarySheds
	}
	for _, p := range c.pools {
		out, in := p.ScaleEvents()
		r.Replicas += len(p.reps)
		r.ScaleOuts += out
		r.ScaleIns += in
		r.RoutedCounts = append(r.RoutedCounts, p.RoutedCounts()...)
		r.Pools = append(r.Pools, PoolReport{
			Role:           p.cfg.Role,
			Replicas:       len(p.reps),
			ReplicaSeconds: p.ReplicaSeconds(),
			CostSeconds:    p.CostSeconds(),
			ScaleOuts:      out,
			ScaleIns:       in,
			RoutedCounts:   p.RoutedCounts(),
			Flavors:        p.Flavors(),
		})
	}
	var delay float64
	delivered := 0
	for _, chunk := range c.handoffs.chunks {
		for i := range chunk {
			h := &chunk[i]
			if h.DeliveredAt < 0 {
				continue // deferred by a fault and never booked
			}
			delay += h.DeliveredAt - h.PrefillDoneAt
			delivered++
		}
	}
	if delivered > 0 {
		r.MeanTransferDelay = delay / float64(delivered)
	}
	return r
}

// String renders a one-line report for logs.
func (r Report) String() string {
	return fmt.Sprintf("fleet(%d): %s, %.0f replica-seconds, %d out/%d in",
		r.Replicas, r.Summary, r.ReplicaSeconds, r.ScaleOuts, r.ScaleIns)
}
