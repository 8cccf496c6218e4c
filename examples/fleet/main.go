// Fleet: the paper's future-work proposal (§7) in action — a one-pool
// cluster spreads traffic over several serving replicas using the
// Past-Future estimator's predicted memory demand, and scales the fleet on
// the same signal.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"

	"github.com/lightllm-go/lightllm"
	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/workload"
)

func main() {
	// A monolithic fleet is the cluster of one mixed-role pool.
	mkFleet := func(n int, pol cluster.Policy, scale *cluster.AutoScale) (*cluster.Cluster, *cluster.Pool) {
		reps := make([]*lightllm.Engine, n)
		for i := range reps {
			eng, err := lightllm.NewServing(lightllm.ServingConfig{
				Model:     "Llama2-7B-Chat",
				GPU:       "A100-80G",
				Scheduler: "past-future",
				Seed:      uint64(i + 1),
			})
			if err != nil {
				log.Fatal(err)
			}
			reps[i] = eng
		}
		c, err := cluster.NewCluster(cluster.ClusterConfig{
			Pools: []cluster.Config{{Replicas: reps, Policy: pol, Scale: scale}},
		})
		if err != nil {
			log.Fatal(err)
		}
		return c, c.Pool(0)
	}

	// A bursty, size-skewed request stream (mixed chat + long-document)
	// offered near the fleet's knee: queues form transiently on unlucky
	// replicas, which is exactly where routing policy matters.
	mkStream := func() []*lightllm.Request {
		gen := workload.Uniform{Label: "mixed", InLo: 100, InHi: 6000, OutLo: 50, OutHi: 3000}
		r := lightllm.NewRNG(33)
		reqs := lightllm.BuildWorkload(gen, r, 300, 1, 4096)
		workload.AssignPoissonArrivals(reqs, r, 0.9, 0)
		return reqs
	}

	fmt.Println("routing 300 mixed-size requests over 3 Llama-2-7B replicas:")
	fmt.Printf("%-18s %10s %10s %12s\n", "policy", "meanTTFT", "p99TTFT", "imbalance")
	for _, pol := range []cluster.Policy{cluster.RoundRobin, cluster.LeastLoaded, cluster.FutureHeadroom} {
		c, pool := mkFleet(3, pol, nil)
		results := c.Serve(mkStream(), 1e9)
		var sum, worst float64
		var n int
		for _, res := range results {
			for _, req := range res.Finished {
				sum += req.TTFT()
				if req.TTFT() > worst {
					worst = req.TTFT()
				}
				n++
			}
		}
		fmt.Printf("%-18s %9.2fs %9.2fs %12.3f\n", pol, sum/float64(n), worst, pool.Imbalance())
	}

	// Predictive autoscaling: start with one replica, grow under load.
	fmt.Println("\npredictive autoscaling (min 1, max 4 replicas, high-water 70%):")
	c, pool := mkFleet(4, cluster.FutureHeadroom,
		&cluster.AutoScale{Max: 4, HighWater: 0.7, LowWater: 0.2, ActivationDelay: 5})
	c.Serve(mkStream(), 1e9)
	out, in := pool.ScaleEvents()
	fmt.Printf("scale-out events: %d, scale-in events: %d, final active replicas: %d\n",
		out, in, pool.ActiveReplicas())
	fmt.Println("\nthe estimator that schedules a single batch also sizes the fleet:")
	fmt.Println("predicted future memory demand is the load signal (§7 of the paper).")
}
