package main

// The -scale mode: long-trace replay throughput. A compressed "day" of
// traffic — diurnal rate curve, drifting workload mixture — streams through
// a large monolithic Past-Future fleet twice on identical regenerated arrival
// streams: as built, where a run of coasted decode steps costs one heap event,
// and as its per-step twin, the same fleet with a no-op token hook on every
// engine, which never coasts and so pops one event per engine step. The run
// hard-fails unless the two reports are byte-identical — the speed numbers
// mean something only because the answers are exactly the same — and reports
// wall-clock, heap events and simulated seconds per wall second for both,
// optionally as BENCH_scale.json via -json.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// scaleOptions parameterizes the -scale replay.
type scaleOptions struct {
	requests int     // day-trace length; the acceptance runs use ≥1M
	replicas int     // fleet width
	capacity int     // per-replica KV capacity override, tokens
	peak     float64 // diurnal peak arrival rate, req/s
	repeat   int     // timing repeats per mode; wall-clock is the min
	seed     uint64
	maxNew   int // output cap: keeps OSL ≈ 150, the day-trace calibration
}

// scaleRun is one mode's measured replay.
type scaleRun struct {
	// Mode is "coasting" (as built) or "per-step" (the token-hooked twin).
	Mode        string  `json:"mode"`
	WallSeconds float64 `json:"wall_s"`
	// HeapEvents is what the cluster popped off its event heap.
	HeapEvents int64 `json:"heap_events"`
	// SimPerWall is simulated seconds served per wall-clock second.
	SimPerWall float64 `json:"sim_s_per_wall_s"`
}

// scaleResult is the BENCH_scale.json payload.
type scaleResult struct {
	Requests int     `json:"requests"`
	Replicas int     `json:"replicas"`
	Capacity int     `json:"capacity_tokens"`
	PeakRate float64 `json:"peak_rate_req_s"`
	Seed     uint64  `json:"seed"`
	Repeat   int     `json:"timing_repeats"`
	// NumCPU says what host the wall-clock numbers come from; the replay
	// itself runs on one core.
	NumCPU     int     `json:"num_cpu"`
	SimSeconds float64 `json:"sim_duration_s"`
	Finished   int     `json:"finished"`
	MeanTTFT   float64 `json:"mean_ttft_s"`
	// ReportsMatch certifies that the coasting replay and its per-step twin
	// reported byte-identical results on every repeat.
	ReportsMatch bool `json:"reports_match"`
	// SpeedupVsPerStep is the per-step twin's wall-clock over the coasting
	// replay's.
	SpeedupVsPerStep float64    `json:"speedup_vs_per_step"`
	Runs             []scaleRun `json:"runs"`
}

// dayStream regenerates the -scale arrival stream: a diurnal rate curve
// (night trough, morning ramp, midday peak, evening shoulder) whose phase
// durations are solved so the curve emits exactly opts.requests requests,
// and a workload mixture that drifts across the day — chat-dominated
// mornings, multimodal midday, reasoning-heavy evenings — with outputs
// capped at maxNew. Each call rebuilds an identical stream from the seeds.
func dayStream(opts scaleOptions) *workload.Stream {
	shape := []float64{0.30, 0.45, 0.70, 1.00, 0.95, 0.75, 0.50, 0.35}
	sum := 0.0
	for _, f := range shape {
		sum += f
	}
	phaseDur := float64(opts.requests) / (opts.peak * sum)
	phases := make([]workload.RatePhase, len(shape))
	for i, f := range shape {
		phases[i] = workload.RatePhase{Rate: f * opts.peak, Duration: phaseDur}
	}
	third := opts.requests / 3
	gen := &workload.Concat{
		Label: "day-trace",
		Parts: []workload.Generator{
			workload.Mixed{Label: "morning", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256)}, Weights: []float64{4, 1}},
			workload.Mixed{Label: "midday", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256), workload.ShareGPTO1}, Weights: []float64{2, 2, 1}},
			workload.Mixed{Label: "evening", Parts: []workload.Generator{workload.ShareGPT, workload.ShareGPTO1}, Weights: []float64{2, 3}},
		},
		PerPart: third,
	}
	return workload.NewStream(workload.StreamConfig{
		Gen:      gen,
		Lengths:  rng.New(opts.seed + 1000),
		Arrivals: rng.New(opts.seed + 2000),
		Phases:   phases,
		N:        opts.requests,
		FirstID:  1,
		MaxNew:   opts.maxNew,
	})
}

// buildScaleFleet assembles the replay fleet: mixed-role Past-Future
// replicas, per-replica scheduler RNG streams, no autoscaler — a fixed fleet
// keeps both modes' work identical by construction. perStep gives every
// engine a no-op token hook, which keeps it off coasted decode steps.
func buildScaleFleet(opts scaleOptions, perStep bool) *cluster.Cluster {
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	engines := make([]*engine.Engine, opts.replicas)
	for i := range engines {
		engines[i] = engine.MustNew(engine.Config{
			Perf: pm,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(opts.seed + uint64(i)),
			}),
			CapacityOverride: opts.capacity,
		})
		if perStep {
			engines[i].AddTokenHook(func(float64, *request.Request) {})
		}
	}
	return newFleet(cluster.Config{Replicas: engines, Policy: cluster.FutureHeadroom}, nil)
}

// runScale replays the day in both modes and returns the measurements. Each
// mode repeats opts.repeat times on freshly regenerated identical streams,
// alternating modes; the reported wall-clock is the minimum — the
// least-noise estimator on a shared host — while the report equality check
// covers every repeat.
func runScale(opts scaleOptions) scaleResult {
	sla := metrics.SLA{TTFT: 8, MTPOT: 1.5}
	if opts.repeat < 1 {
		opts.repeat = 1
	}
	res := scaleResult{
		Requests: opts.requests, Replicas: opts.replicas,
		Capacity: opts.capacity, PeakRate: opts.peak, Seed: opts.seed,
		Repeat: opts.repeat, NumCPU: runtime.NumCPU(), ReportsMatch: true,
	}
	runs := []scaleRun{{Mode: "coasting"}, {Mode: "per-step"}}
	var refReport string
	for rep := 0; rep < opts.repeat; rep++ {
		for i := range runs {
			f := buildScaleFleet(opts, runs[i].Mode == "per-step")
			stream := dayStream(opts)
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
		if runs[i].WallSeconds > 0 {
			runs[i].SimPerWall = res.SimSeconds / runs[i].WallSeconds
		}
		fmt.Printf("%-9s wall %8.2fs  %12d heap events  %9.1f sim-s per wall-s\n",
			runs[i].Mode, runs[i].WallSeconds, runs[i].HeapEvents, runs[i].SimPerWall)
	}
	res.Runs = runs
	if runs[0].WallSeconds > 0 {
		res.SpeedupVsPerStep = runs[1].WallSeconds / runs[0].WallSeconds
	}
	if !res.ReportsMatch {
		fatal(fmt.Errorf("scale replay: the coasting report diverges from its per-step twin's"))
	}
	fmt.Printf("day trace: %d requests over %.0fs simulated (%d finished, mean TTFT %.2fs), reports identical in both modes\n",
		res.Requests, res.SimSeconds, res.Finished, res.MeanTTFT)
	fmt.Printf("coasting vs per-step: %.2fx wall-clock, %.1f%% of the heap events\n",
		res.SpeedupVsPerStep, 100*float64(runs[0].HeapEvents)/float64(runs[1].HeapEvents))
	return res
}

// writeScaleJSON writes BENCH_scale.json.
func writeScaleJSON(path string, res scaleResult) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}
