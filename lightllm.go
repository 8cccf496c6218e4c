// Package lightllm is the public facade of the Past-Future scheduler
// reproduction (ASPLOS 2025, "Past-Future Scheduler for LLM Serving under
// SLA Guarantees"): a continuous-batching LLM serving engine simulator with
// the paper's scheduler, its baselines, calibrated GPU/model performance
// models, workload synthesizers, SLA metrics, and one experiment runner per
// table and figure of the paper's evaluation.
//
// Quick start:
//
//	eng, err := lightllm.NewServing(lightllm.ServingConfig{
//		Model:     "Llama2-7B-Chat",
//		GPU:       "A100-80G",
//		Scheduler: "past-future",
//	})
//	...
//	eng.SubmitAll(reqs)
//	result := eng.Run()
//
// The experiment runners regenerate the paper's results:
//
//	lightllm.RunTable1(lightllm.BenchOptions{Out: os.Stdout})
//
// README.md's "Package map" is the system inventory; its "Benchmarks"
// section and `go run ./cmd/pfsim -exp all` give the measured results.
package lightllm

import (
	"fmt"
	"strings"

	"github.com/lightllm-go/lightllm/internal/bench"
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

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Engine is the continuous-batching serving engine.
	Engine = engine.Engine
	// EngineConfig configures an Engine (see NewServing for the high-level
	// constructor).
	EngineConfig = engine.Config
	// Result summarises an engine run.
	Result = engine.Result
	// Request is one generation request.
	Request = request.Request
	// Scheduler is the admission-policy interface.
	Scheduler = core.Scheduler
	// PastFutureConfig parameterises the paper's scheduler.
	PastFutureConfig = core.PastFutureConfig
	// SLA is a latency service-level agreement (TTFT / MTPOT bounds).
	SLA = metrics.SLA
	// Summary aggregates SLA metrics and goodput over a run.
	Summary = metrics.Summary
	// ModelSpec describes an LLM architecture.
	ModelSpec = model.Spec
	// Cluster is a tensor-parallel GPU group.
	Cluster = hw.Cluster
	// PerfModel converts engine iterations into durations.
	PerfModel = perf.Model
	// Generator produces workload length pairs.
	Generator = workload.Generator
	// RNG is the deterministic random source used across the library.
	RNG = rng.RNG
	// BenchOptions configures experiment runners.
	BenchOptions = bench.Options
)

// Paper SLA presets (§5.1).
var (
	// SLASmall is the 7B/13B SLA: TTFT < 10 s, MTPOT < 1.5 s.
	SLASmall = metrics.SLASmall
	// SLALarge is the 70B SLA: TTFT < 15 s, MTPOT < 5 s.
	SLALarge = metrics.SLALarge
)

// NewRNG returns a deterministic random source.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewRequest constructs a request (input prompt tokens, hidden true output
// length, max_new_tokens cap, arrival time in seconds).
func NewRequest(id int64, inputLen, trueOutputLen, maxNewTokens int, arrival float64) *Request {
	return request.New(id, inputLen, trueOutputLen, maxNewTokens, arrival)
}

// Summarize computes SLA metrics and goodput over requests finishing in
// (from, to].
func Summarize(finished []*Request, sla SLA, from, to float64) Summary {
	return metrics.Summarize(finished, sla, from, to)
}

// ServingConfig is the high-level deployment description for NewServing.
type ServingConfig struct {
	// Model is a predefined model name ("Llama2-7B-Chat", "Llama2-13B-Chat",
	// "Llama2-70B-Chat", "Qwen-VL-Chat", "LLaVA-1.5-7B", "LLaVA-1.5-13B").
	Model string
	// GPU is a predefined GPU name ("A100-80G", "H800", "RTX-4090", "A30").
	GPU string
	// TP is the tensor-parallel degree. 0 selects 1.
	TP int
	// Scheduler selects the admission policy: "past-future" (default),
	// "aggressive", "conservative", or "oracle".
	Scheduler string
	// Param is the scheduler knob: reserved fraction (past-future, default
	// 0.03), watermark (aggressive, default 0.97), or overcommit
	// (conservative, default 1.0).
	Param float64
	// Seed drives the Past-Future sampling predictions. 0 selects 1.
	Seed uint64
	// QueueTimeout, when positive, enables SLA-aware client abandonment.
	QueueTimeout float64
	// StaticBatchSize, when positive, turns continuous batching off: the
	// engine serves fixed padded batches of this size (Table 2's origin
	// mode) and Scheduler and Param are unused. 0 keeps continuous batching
	// with fused prefill.
	StaticBatchSize int
}

// NewServing builds an engine from a high-level deployment description.
func NewServing(cfg ServingConfig) (*Engine, error) {
	spec, err := model.ByName(cfg.Model)
	if err != nil {
		return nil, err
	}
	gpu, err := hw.GPUByName(cfg.GPU)
	if err != nil {
		return nil, err
	}
	tp := cfg.TP
	if tp == 0 {
		tp = 1
	}
	pm, err := perf.New(perf.Config{Model: spec, Cluster: hw.NewCluster(gpu, tp)})
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	ecfg := engine.Config{Perf: pm, QueueTimeout: cfg.QueueTimeout, StaticBatchSize: cfg.StaticBatchSize}
	if ecfg.StaticBatchSize == 0 {
		if ecfg.Scheduler, err = NewScheduler(cfg.Scheduler, cfg.Param, seed); err != nil {
			return nil, err
		}
	}
	return engine.New(ecfg)
}

// NewScheduler constructs a scheduler by name. param semantics depend on
// the family (see ServingConfig.Param); 0 selects the family default.
func NewScheduler(name string, param float64, seed uint64) (Scheduler, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "past-future", "pastfuture", "pf":
		if param == 0 {
			param = 0.03
		}
		return core.NewPastFuture(core.PastFutureConfig{Reserved: param, Rng: rng.New(seed)})
	case "aggressive", "vllm":
		if param == 0 {
			param = 0.97
		}
		return core.NewAggressive(param)
	case "conservative", "tgi":
		if param == 0 {
			param = 1.0
		}
		return core.NewConservative(param)
	case "oracle", "optimum":
		return core.NewOracle(), nil
	default:
		return nil, fmt.Errorf("lightllm: unknown scheduler %q", name)
	}
}

// Workload presets (paper §5.1).
var (
	// Distribution1 is the decode-heavy uniform workload (32–4k / 2k–4k).
	Distribution1 Generator = workload.Distribution1
	// Distribution2 is the balanced uniform workload (3k–5k / 3k–5k).
	Distribution2 Generator = workload.Distribution2
	// Distribution3 is the prefill-heavy uniform workload (2k–4k / 32–4k).
	Distribution3 Generator = workload.Distribution3
	// ShareGPT approximates the ShareGPT conversation workload.
	ShareGPT Generator = workload.ShareGPT
	// ShareGPTO1 approximates the decode-heavy ShareGPT-o1 reasoning
	// workload.
	ShareGPTO1 Generator = workload.ShareGPTO1
)

// BuildWorkload materialises n requests from a generator (batch arrivals).
func BuildWorkload(gen Generator, r *RNG, n int, firstID int64, maxNew int) []*Request {
	return workload.Build(gen, r, n, firstID, maxNew)
}

// NewClosedLoop attaches N closed-loop clients to an engine until deadline.
func NewClosedLoop(eng *Engine, gen Generator, r *RNG, clients, maxNew int, think, deadline float64) *workload.ClosedLoop {
	return workload.NewClosedLoop(eng, gen, r, clients, maxNew, think, deadline)
}

// Experiment runners — one per table/figure of the paper (§5). Each prints
// a formatted table to opts.Out and returns structured results.
var (
	RunTable1    = bench.RunTable1
	RunTable2    = bench.RunTable2
	RunFigure8   = bench.RunFigure8
	RunPredictor = bench.RunPredictor
	RunFigure1   = bench.RunFigure1
	RunFigure3   = bench.RunFigure3
	RunFigure4   = bench.RunFigure4
	RunFigure5   = bench.RunFigure5
	RunFigure6   = bench.RunFigure6
	RunAblation  = bench.RunAblation
)

// RunFigure7 reproduces the goodput-vs-clients panels; model/dataset
// filters (prefix match) limit the sweep.
func RunFigure7(opts BenchOptions, models, datasets []string) *bench.Fig7Result {
	return bench.RunFigure7(bench.Fig7Options{Options: opts, Models: models, Datasets: datasets})
}

// RunFigure9 reproduces the framework comparison; model/hardware filters
// (prefix match) limit the sweep.
func RunFigure9(opts BenchOptions, models, hardware []string) *bench.Fig9Result {
	return bench.RunFigure9(bench.Fig9Options{Options: opts, Models: models, Hardware: hardware})
}
