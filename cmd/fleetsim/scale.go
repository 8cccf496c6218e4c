package main

// The scale scenario: a compressed "day" streams through a 96-replica fleet
// as built (a run of coasted decode steps is one heap event) and as its
// per-step twin (a no-op token hook on every engine: one event per step). The
// win condition is that both report byte-identically — the speed numbers
// mean something only then — and only then does -json write the record.

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

const (
	dayRequests = 1_000_000 // day-trace length
	dayReplicas = 96        // fleet width
	dayPeak     = 1200.0    // diurnal peak arrival rate, req/s
	dayRepeats  = 2         // timing repeats per mode; wall-clock is the min
	dayMaxNew   = 150       // output cap: keeps OSL ≈ 150, the day-trace calibration
)

var scaleScenario = scenario{
	name:  "scale",
	about: "a streamed 1M-request diurnal day on 96 replicas, as built and as its per-step twin (runs alone)",
	solo:  runScale,
}

// scaleRun is one mode's measured replay.
type scaleRun struct {
	Mode        string  `json:"mode"` // "coasting" (as built) or "per-step"
	WallSeconds float64 `json:"wall_s"`
	HeapEvents  int64   `json:"heap_events"`      // popped off the cluster's event heap
	SimPerWall  float64 `json:"sim_s_per_wall_s"` // simulated seconds per wall second
}

// scaleResult is the BENCH_scale.json payload.
type scaleResult struct {
	Requests         int        `json:"requests"`
	Replicas         int        `json:"replicas"`
	Capacity         int        `json:"capacity_tokens"`
	PeakRate         float64    `json:"peak_rate_req_s"`
	Seed             uint64     `json:"seed"`
	Repeat           int        `json:"timing_repeats"`
	NumCPU           int        `json:"num_cpu"`
	SimSeconds       float64    `json:"sim_duration_s"`
	Finished         int        `json:"finished"`
	MeanTTFT         float64    `json:"mean_ttft_s"`
	ReportsMatch     bool       `json:"reports_match"` // on every repeat
	SpeedupVsPerStep float64    `json:"speedup_vs_per_step"`
	Runs             []scaleRun `json:"runs"`
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

// dayFleet is fixed-size, so both modes do identical work. perStep gives
// every engine a no-op token hook, which keeps it off coasted decode steps.
func dayFleet(seed uint64, perStep bool) *cluster.Cluster {
	engines := pastFuture(dayReplicas, seed, engine.Config{Perf: llama2(hw.A100_80G), CapacityOverride: capacity})
	if perStep {
		for _, e := range engines {
			e.AddTokenHook(func(float64, *request.Request) {})
		}
	}
	return monolithic(cluster.Config{Replicas: engines}, nil)
}

// runScale replays the day in both modes, alternating, dayRepeats times
// each. Wall-clock is the minimum (the least noisy on a shared host); the
// reports must match on every repeat.
func runScale(w io.Writer, seed uint64, jsonPath string) ([]claim, error) {
	res := scaleResult{
		Requests: dayRequests, Replicas: dayReplicas, Capacity: capacity, PeakRate: dayPeak,
		Seed: seed, Repeat: dayRepeats, NumCPU: runtime.NumCPU(), ReportsMatch: true,
	}
	runs := []scaleRun{{Mode: "coasting"}, {Mode: "per-step"}}
	var refReport string
	for rep := 0; rep < dayRepeats; rep++ {
		for i := range runs {
			f := dayFleet(seed, runs[i].Mode == "per-step")
			stream := dayStream(seed)
			start := time.Now()
			results := f.ServeStream(stream.Next, 1e9)
			wall := time.Since(start).Seconds()
			report := f.Report(results, sla)
			repStr := fmt.Sprintf("%+v", report)
			if rep == 0 && i == 0 {
				refReport = repStr
				res.SimSeconds = report.Duration
				res.Finished = report.Finished
				res.MeanTTFT = report.Summary.MeanTTFT
			} else if repStr != refReport {
				res.ReportsMatch = false
			}
			if rep == 0 || wall < runs[i].WallSeconds {
				runs[i].WallSeconds = wall
			}
			runs[i].HeapEvents = f.EventsProcessed()
		}
	}
	for i := range runs {
		runs[i].SimPerWall = res.SimSeconds / runs[i].WallSeconds
		fmt.Fprintf(w, "%-9s wall %8.2fs  %12d heap events  %9.1f sim-s per wall-s\n",
			runs[i].Mode, runs[i].WallSeconds, runs[i].HeapEvents, runs[i].SimPerWall)
	}
	res.Runs = runs
	res.SpeedupVsPerStep = runs[1].WallSeconds / runs[0].WallSeconds
	fmt.Fprintf(w, "day trace: %d requests over %.0fs simulated (%d finished, mean TTFT %.2fs)\n",
		res.Requests, res.SimSeconds, res.Finished, res.MeanTTFT)
	fmt.Fprintf(w, "coasting vs per-step: %.2fx wall-clock, %.1f%% of the heap events\n",
		res.SpeedupVsPerStep, 100*float64(runs[0].HeapEvents)/float64(runs[1].HeapEvents))
	verdict := []claim{{fmt.Sprintf("coasting report equals the per-step twin's on all %d repeats", dayRepeats), res.ReportsMatch}}
	if jsonPath == "" || !res.ReportsMatch {
		return verdict, nil
	}
	return verdict, writeIndented(jsonPath, res)
}
