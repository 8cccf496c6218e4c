package main

// The scale scenario: a compressed "day" streams through a 96-replica fleet,
// dayRepeats times. The win conditions are that every repeat reports
// byte-identically and that all of the day's requests finish; only then does
// -json write the record. That a run of coasted decode steps reports what
// stepping one event at a time would is TestCoastRunMatchesPerStepPath's to
// check (internal/cluster, in make chaos), not this replay's.

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

const (
	dayRequests = 1_000_000 // day-trace length
	dayReplicas = 96        // fleet width
	dayPeak     = 1200.0    // diurnal peak arrival rate, req/s
	dayRepeats  = 2         // timing repeats; wall-clock is the min
	dayMaxNew   = 150       // output cap: keeps OSL ≈ 150, the day-trace calibration
)

var scaleScenario = scenario{
	name:  "scale",
	about: "a streamed 1M-request diurnal day on 96 replicas, replayed twice (runs alone)",
	solo:  runScale,
}

// scaleResult is the BENCH_scale.json payload.
type scaleResult struct {
	Requests     int     `json:"requests"`
	Replicas     int     `json:"replicas"`
	Capacity     int     `json:"capacity_tokens"`
	PeakRate     float64 `json:"peak_rate_req_s"`
	Seed         uint64  `json:"seed"`
	Repeat       int     `json:"timing_repeats"`
	NumCPU       int     `json:"num_cpu"`
	SimSeconds   float64 `json:"sim_duration_s"`
	Finished     int     `json:"finished"`
	MeanTTFT     float64 `json:"mean_ttft_s"`
	ReportsMatch bool    `json:"reports_match"` // on every repeat
	WallSeconds  float64 `json:"wall_s"`
	HeapEvents   int64   `json:"heap_events"`      // popped off the cluster's event heap
	SimPerWall   float64 `json:"sim_s_per_wall_s"` // simulated seconds per wall second
}

// dayStream regenerates the day's arrival stream: a diurnal rate curve whose
// phases emit exactly dayRequests requests, and a mixture that drifts from
// chat mornings through multimodal middays to reasoning-heavy evenings.
func dayStream(seed uint64) *workload.Stream {
	shape := []float64{0.30, 0.45, 0.70, 1.00, 0.95, 0.75, 0.50, 0.35}
	sum := 0.0
	for _, f := range shape {
		sum += f
	}
	phaseDur := float64(dayRequests) / (dayPeak * sum)
	phases := make([]workload.RatePhase, len(shape))
	for i, f := range shape {
		phases[i] = workload.RatePhase{Rate: f * dayPeak, Duration: phaseDur}
	}
	gen := &workload.Concat{
		Label: "day-trace",
		Parts: []workload.Generator{
			workload.Mixed{Label: "morning", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256)}, Weights: []float64{4, 1}},
			workload.Mixed{Label: "midday", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256), workload.ShareGPTO1}, Weights: []float64{2, 2, 1}},
			workload.Mixed{Label: "evening", Parts: []workload.Generator{workload.ShareGPT, workload.ShareGPTO1}, Weights: []float64{2, 3}},
		},
		PerPart: dayRequests / 3,
	}
	return workload.NewStream(workload.StreamConfig{
		Gen: gen, Lengths: rng.New(seed + 1000), Arrivals: rng.New(seed + 2000),
		Phases: phases, N: dayRequests, FirstID: 1, MaxNew: dayMaxNew,
	})
}

// dayFleet is fixed-size, so every repeat does identical work.
func dayFleet(seed uint64) *cluster.Cluster {
	engines := pastFuture(dayReplicas, seed, engine.Config{Perf: llama2(hw.A100_80G), CapacityOverride: capacity})
	return monolithic(cluster.Config{Replicas: engines}, nil)
}

// runScale replays the day dayRepeats times. Wall-clock is the minimum (the
// least noisy on a shared host); the reports must match on every repeat.
func runScale(w io.Writer, seed uint64, jsonPath string) ([]claim, error) {
	res := scaleResult{
		Requests: dayRequests, Replicas: dayReplicas, Capacity: capacity, PeakRate: dayPeak,
		Seed: seed, Repeat: dayRepeats, NumCPU: runtime.NumCPU(), ReportsMatch: true,
	}
	var refReport string
	for rep := 0; rep < dayRepeats; rep++ {
		f := dayFleet(seed)
		stream := dayStream(seed)
		start := time.Now()
		results := f.ServeStream(stream.Next, 1e9)
		wall := time.Since(start).Seconds()
		report := f.Report(results, sla)
		repStr := fmt.Sprintf("%+v", report)
		if rep == 0 {
			refReport = repStr
			res.SimSeconds = report.Duration
			res.Finished = report.Finished
			res.MeanTTFT = report.Summary.MeanTTFT
			res.HeapEvents = f.EventsProcessed()
		} else if repStr != refReport {
			res.ReportsMatch = false
		}
		if rep == 0 || wall < res.WallSeconds {
			res.WallSeconds = wall
		}
	}
	res.SimPerWall = res.SimSeconds / res.WallSeconds
	fmt.Fprintf(w, "day trace: %d requests over %.0fs simulated (%d finished, mean TTFT %.2fs)\n",
		res.Requests, res.SimSeconds, res.Finished, res.MeanTTFT)
	fmt.Fprintf(w, "wall %.2fs (min of %d)  %d heap events  %.1f sim-s per wall-s\n",
		res.WallSeconds, dayRepeats, res.HeapEvents, res.SimPerWall)
	verdict := []claim{
		{fmt.Sprintf("every one of %d repeats reports byte-identically", dayRepeats), res.ReportsMatch},
		{fmt.Sprintf("%d of %d requests finish", res.Finished, dayRequests), res.Finished == dayRequests},
	}
	if jsonPath == "" || !res.ReportsMatch || res.Finished != dayRequests {
		return verdict, nil
	}
	return verdict, writeIndented(jsonPath, res)
}
