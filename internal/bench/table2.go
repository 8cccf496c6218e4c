package bench

import (
	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// Table2Row compares one multimodal model's original implementation
// (static batching over slower kernels) against LightLLM (continuous
// batching + Past-Future scheduler).
type Table2Row struct {
	Model string
	// OriginThroughput / LightLLMThroughput are output tokens per second.
	OriginThroughput   float64
	LightLLMThroughput float64
	// Speedup is LightLLM / origin.
	Speedup float64
}

// Table2Result holds the three model rows.
type Table2Result struct {
	Rows []Table2Row
}

// Row returns the row for the model-name prefix, or nil.
func (t *Table2Result) Row(prefix string) *Table2Row {
	for i := range t.Rows {
		if startsWith(t.Rows[i].Model, prefix) {
			return &t.Rows[i]
		}
	}
	return nil
}

// RunTable2 reproduces Table 2: TextVQA-like multimodal serving throughput
// for Qwen-VL-Chat and LLaVA-1.5-7B/13B, original implementation vs
// LightLLM. The origin path models the HuggingFace-style reference stacks:
// static fixed-size batches padded to the longest sequence, no continuous
// batching, slower kernels.
func RunTable2(opts Options) *Table2Result {
	opts = opts.normalized()
	n := scaled(3000, opts.Scale, 120)
	cluster := hw.NewCluster(hw.A100_80G, 1)
	specs := []model.Spec{model.QwenVLChat, model.LLaVA15_7B, model.LLaVA15_13B}

	res := &Table2Result{}
	tbl := &Table{
		Title:  "Table 2: multimodal throughput, original implementation vs LightLLM (TextVQA)",
		Header: []string{"Model", "Origin(tok/s)", "LightLLM(tok/s)", "Speedup"},
	}
	for si, spec := range specs {
		gen := workload.TextVQA(spec.ImageTokens)
		const maxNew = 256

		// Origin: static batching, padded lanes, reference kernels.
		originPerf := perf.MustNew(perf.Config{Model: spec, Cluster: cluster, Speedup: 0.85, IterOverhead: 0.006})
		origin := engine.MustNew(engine.Config{
			Perf:            originPerf,
			StaticBatchSize: 64,
		})
		origin.SubmitAll(workload.Build(gen, rng.New(opts.Seed), n, 1, maxNew))
		originRes := origin.Run()

		// LightLLM: continuous batching with the Past-Future scheduler.
		llPerf := perf.MustNew(perf.Config{Model: spec, Cluster: cluster, IterOverhead: 0.003})
		ll := engine.MustNew(engine.Config{
			Perf: llPerf,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.03, Rng: rng.New(opts.Seed + uint64(si)),
			}),
		})
		ll.SubmitAll(workload.Build(gen, rng.New(opts.Seed), n, 1, maxNew))
		llRes := ll.Run()

		row := Table2Row{
			Model:              spec.Name,
			OriginThroughput:   originRes.Throughput(),
			LightLLMThroughput: llRes.Throughput(),
		}
		if row.OriginThroughput > 0 {
			row.Speedup = row.LightLLMThroughput / row.OriginThroughput
		}
		res.Rows = append(res.Rows, row)
		tbl.Add(row.Model, f0tok(row.OriginThroughput), f0tok(row.LightLLMThroughput), f2(row.Speedup))
	}
	tbl.Fprint(opts.Out)
	return res
}
