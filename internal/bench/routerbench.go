package bench

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/stats"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// RouterRow is one (policy, load) cell of the multi-replica routing study
// (the paper's §7 future-work proposal, built on the same estimator).
type RouterRow struct {
	Policy    string
	Rate      float64 // requests/second offered to the fleet
	MeanTTFT  float64
	P99TTFT   float64
	Finished  int
	Imbalance float64 // coefficient of variation of per-replica requests
}

// RouterResult holds the sweep.
type RouterResult struct {
	Rows     []RouterRow
	Replicas int
}

// PolicyRows returns the rows for one routing policy.
func (r *RouterResult) PolicyRows(name string) []RouterRow {
	var out []RouterRow
	for _, row := range r.Rows {
		if row.Policy == name {
			out = append(out, row)
		}
	}
	return out
}

// RunRouter evaluates the future-work load-aware routing: round-robin vs
// least-loaded vs future-headroom (estimator-based) across offered loads on
// a fleet of Past-Future replicas serving a size-skewed workload: a one-pool
// cluster, the monolithic fleet. cmd/fleetsim covers the autoscaling side of
// the same subsystem.
func RunRouter(opts Options) *RouterResult {
	opts = opts.normalized()
	const replicaCount = 3
	n := scaled(600, opts.Scale, 100)
	gen := workload.Uniform{Label: "skewed", InLo: 100, InHi: 4000, OutLo: 50, OutHi: 2000}
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})

	res := &RouterResult{Replicas: replicaCount}
	tbl := &Table{
		Title:  "Future work (§7): load-aware routing across replicas (Llama-2-7B x3)",
		Header: []string{"Policy", "Rate(req/s)", "MeanTTFT", "P99TTFT", "Finished", "Imbalance"},
	}
	for _, rate := range []float64{0.9, 1.3, 1.8} {
		for _, pol := range []cluster.Policy{cluster.RoundRobin, cluster.LeastLoaded, cluster.FutureHeadroom} {
			reps := make([]*engine.Engine, replicaCount)
			for i := range reps {
				reps[i] = engine.MustNew(engine.Config{
					Perf: pm,
					Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
						Reserved: 0.05, Rng: rng.New(opts.Seed + uint64(i)),
					}),
					CapacityOverride: 30_000,
				})
			}
			rt, err := cluster.NewCluster(cluster.ClusterConfig{Pools: []cluster.Config{{Replicas: reps, Policy: pol}}})
			if err != nil {
				panic(err)
			}
			rs := rng.New(opts.Seed + 77)
			reqs := workload.Build(gen, rs, n, 1, 2048)
			workload.AssignPoissonArrivals(reqs, rs, rate, 0)
			results := rt.Serve(reqs, 1e9)
			var ttfts []float64
			finished := 0
			for _, r := range results {
				finished += len(r.Finished)
				for _, req := range r.Finished {
					ttfts = append(ttfts, req.TTFT())
				}
			}
			row := RouterRow{
				Policy:    pol.String(),
				Rate:      rate,
				Finished:  finished,
				Imbalance: rt.Pool(0).Imbalance(),
			}
			if len(ttfts) > 0 {
				row.MeanTTFT = stats.Mean(ttfts)
				row.P99TTFT = stats.Percentile(ttfts, 0.99)
			}
			res.Rows = append(res.Rows, row)
			tbl.Add(row.Policy, fmt.Sprintf("%.1f", rate), f2(row.MeanTTFT), f2(row.P99TTFT),
				itoa(row.Finished), f2(row.Imbalance))
		}
	}
	tbl.Fprint(opts.Out)
	return res
}
