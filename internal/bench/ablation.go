package bench

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/stats"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Study       string
	Config      string
	DecodeSteps int
	EvictedFrac float64
	MemUtil     float64
	PhysMemUtil float64
	Goodput     float64
	P99MTPOT    float64
	Finished    int
}

// AblationResult holds every ablation row, grouped by Study.
type AblationResult struct {
	Rows []AblationRow
}

// Study returns all rows of one study.
func (a *AblationResult) Study(name string) []AblationRow {
	var out []AblationRow
	for _, r := range a.Rows {
		if r.Study == name {
			out = append(out, r)
		}
	}
	return out
}

// RunAblation regenerates the design-choice ablations: KV block granularity,
// history window size, small-batch multi-sampling, conditional resampling,
// iteration strategy, eviction policy (recompute vs swap) and the prefill
// token budget, under the Past-Future scheduler unless a study says
// otherwise.
func RunAblation(opts Options) *AblationResult {
	opts = opts.normalized()
	res := &AblationResult{}
	res.blockSize(opts)
	res.historyWindow(opts)
	res.multiSample(opts)
	res.resampling(opts)
	res.strategy(opts)
	res.evictionPolicy(opts)
	res.prefillBudget(opts)

	tbl := &Table{
		Title:  "Ablations (Past-Future scheduler unless noted)",
		Header: []string{"Study", "Config", "DecodeSteps", "Evicted", "MemUtil", "PhysMem", "Goodput", "P99MTPOT", "Finished"},
	}
	for _, r := range res.Rows {
		tbl.Add(r.Study, r.Config, itoa(r.DecodeSteps), pct(r.EvictedFrac),
			pct(r.MemUtil), pct(r.PhysMemUtil), f0tok(r.Goodput), f2(r.P99MTPOT), itoa(r.Finished))
	}
	tbl.Fprint(opts.Out)
	return res
}

func ablPerf() *perf.Model {
	return perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
}

// runBatch drains a batch-mode run and converts it to an AblationRow.
func runBatch(study, config string, eng *engine.Engine, reqs int) AblationRow {
	r := eng.Run()
	var mtpots []float64
	for _, req := range r.Finished {
		mtpots = append(mtpots, req.MTPOT())
	}
	p99 := 0.0
	if len(mtpots) > 0 {
		p99 = stats.Percentile(mtpots, 0.99)
	}
	return AblationRow{
		Study:       study,
		Config:      config,
		DecodeSteps: r.DecodeSteps,
		EvictedFrac: float64(r.Evictions) / float64(reqs),
		MemUtil:     r.MemUtilization,
		PhysMemUtil: r.PhysMemUtilization,
		Goodput:     r.Throughput(),
		P99MTPOT:    p99,
		Finished:    len(r.Finished),
	}
}

// blockSize: LightLLM token granularity vs vLLM 16-token paging.
func (a *AblationResult) blockSize(opts Options) {
	n := scaled(600, opts.Scale, 40)
	for _, bs := range []int{1, 16} {
		eng := engine.MustNew(engine.Config{
			Perf:      ablPerf(),
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.03, Rng: rng.New(opts.Seed)}),
			BlockSize: bs,
		})
		eng.SubmitAll(workload.Build(workload.Distribution1, rng.New(opts.Seed), n, 1, 4096))
		a.Rows = append(a.Rows, runBatch("block-size", fmt.Sprintf("block=%d", bs), eng, n))
	}
}

// historyWindow: how much past the scheduler remembers under drift.
func (a *AblationResult) historyWindow(opts Options) {
	n := scaled(1200, opts.Scale, 80)
	for _, w := range []int{50, 200, 1000, 5000} {
		gen := &workload.Concat{
			Label:   "varying",
			Parts:   []workload.Generator{workload.ShareGPTO1, workload.Distribution3},
			PerPart: n / 2,
		}
		eng := engine.MustNew(engine.Config{
			Perf:          ablPerf(),
			Scheduler:     core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(opts.Seed)}),
			HistoryWindow: w,
		})
		eng.SubmitAll(workload.Build(gen, rng.New(opts.Seed), n, 1, 6144))
		a.Rows = append(a.Rows, runBatch("history-window", fmt.Sprintf("w=%d", w), eng, n))
	}
}

// multiSample: prediction redraws at small batch sizes.
func (a *AblationResult) multiSample(opts Options) {
	n := scaled(300, opts.Scale, 30)
	for _, s := range []int{1, 4, 16} {
		eng := engine.MustNew(engine.Config{
			Perf: ablPerf(),
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.03, Rng: rng.New(opts.Seed), Samples: s, SmallBatch: 64,
			}),
			// Small capacity keeps the batch tiny so multi-sampling is active.
			CapacityOverride: 20_000,
		})
		eng.SubmitAll(workload.Build(workload.Distribution1, rng.New(opts.Seed), n, 1, 4096))
		a.Rows = append(a.Rows, runBatch("multi-sample", fmt.Sprintf("samples=%d", s), eng, n))
	}
}

// resampling: the §3.2 dynamic update vs frozen admission-time predictions.
func (a *AblationResult) resampling(opts Options) {
	n := scaled(600, opts.Scale, 40)
	for _, noResample := range []bool{false, true} {
		label := "resample-each-step"
		if noResample {
			label = "frozen-at-admission"
		}
		eng := engine.MustNew(engine.Config{
			Perf: ablPerf(),
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.03, Rng: rng.New(opts.Seed), NoResample: noResample,
			}),
		})
		eng.SubmitAll(workload.Build(workload.Distribution1, rng.New(opts.Seed), n, 1, 4096))
		a.Rows = append(a.Rows, runBatch("resampling", label, eng, n))
	}
}

// evictionPolicy: recompute vs swap recovery, measured where evictions are
// frequent (aggressive scheduler, decode-heavy load).
func (a *AblationResult) evictionPolicy(opts Options) {
	n := scaled(500, opts.Scale, 40)
	for _, pol := range []engine.EvictionPolicy{engine.Recompute, engine.Swap} {
		eng := engine.MustNew(engine.Config{
			Perf:      ablPerf(),
			Scheduler: core.MustNewAggressive(0.99),
			Eviction:  pol,
		})
		eng.SubmitAll(workload.Build(workload.Distribution1, rng.New(opts.Seed), n, 1, 4096))
		a.Rows = append(a.Rows, runBatch("eviction-policy", pol.String(), eng, n))
	}
}

// prefillBudget: the max-prefill-tokens knob on a long-prompt service under
// live load — capping fused prefills bounds decode stalls (P99 MTPOT) at
// some cost in admission latency.
func (a *AblationResult) prefillBudget(opts Options) {
	duration := 400 * opts.Scale
	if duration < 80 {
		duration = 80
	}
	for _, budget := range []int{0, 16384, 4096} {
		label := "unlimited"
		if budget > 0 {
			label = fmt.Sprintf("max=%d", budget)
		}
		eng := engine.MustNew(engine.Config{
			Perf: ablPerf(),
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(opts.Seed),
			}),
			MaxPrefillTokens: budget,
		})
		workload.NewClosedLoop(eng, workload.Distribution3, rng.New(opts.Seed+5), 30, 4096, 0, duration)
		r := eng.RunUntil(duration)
		sum := metrics.Summarize(r.Finished, metrics.SLASmall, duration/3, duration)
		a.Rows = append(a.Rows, AblationRow{
			Study:       "prefill-budget",
			Config:      label,
			DecodeSteps: r.DecodeSteps,
			EvictedFrac: float64(r.Evictions) / float64(len(r.Finished)+1),
			MemUtil:     r.MemUtilization,
			PhysMemUtil: r.PhysMemUtilization,
			Goodput:     sum.Goodput,
			P99MTPOT:    sum.P99MTPOT,
			Finished:    sum.Total,
		})
	}
}

// strategy: fused prefill-priority vs chunked prefill (SplitFuse) under the
// Past-Future scheduler.
func (a *AblationResult) strategy(opts Options) {
	duration := 400 * opts.Scale
	if duration < 60 {
		duration = 60
	}
	for _, label := range []string{"prefill-priority", "chunked"} {
		cfg := engine.Config{
			Perf:      ablPerf(),
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.03, Rng: rng.New(opts.Seed)}),
		}
		if label == "chunked" {
			cfg = SplitFuse(cfg)
		}
		eng := engine.MustNew(cfg)
		workload.NewClosedLoop(eng, workload.ShareGPT, rng.New(opts.Seed+9), 40, 2048, 0, duration)
		r := eng.RunUntil(duration)
		sum := metrics.Summarize(r.Finished, metrics.SLASmall, duration/3, duration)
		a.Rows = append(a.Rows, AblationRow{
			Study:       "strategy",
			Config:      label,
			DecodeSteps: r.DecodeSteps,
			EvictedFrac: float64(r.Evictions) / float64(len(r.Finished)+1),
			MemUtil:     r.MemUtilization,
			PhysMemUtil: r.PhysMemUtilization,
			Goodput:     sum.Goodput,
			P99MTPOT:    sum.P99MTPOT,
			Finished:    sum.Total,
		})
	}
}
