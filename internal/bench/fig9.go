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
	"github.com/lightllm-go/lightllm/internal/workload"
)

// SplitFuse configures cfg as DeepSpeed-MII's Dynamic SplitFuse (FastGen):
// chunked prefill in greedy 512-token chunks, fused with one decode step
// under FastGen's fixed budget of 512 prompt tokens per iteration.
func SplitFuse(cfg engine.Config) engine.Config {
	cfg.Chunked = engine.ChunkConfig{Enabled: true}
	cfg.MaxPrefillTokens = 512
	return cfg
}

// fig9Framework emulates one serving framework the paper compares in §5.4
// (December-2023 versions, like the paper) by what its scheduling shows:
// the admission policy, the KV allocation granularity, whether prompts are
// chunked, a kernel speed multiplier and a per-iteration overhead. The
// paper's point — and what the table preserves — is that end-to-end goodput
// differences come from the scheduler, not kernel speed.
type fig9Framework struct {
	name string
	// sched builds the framework's scheduler over the RNG a sampling
	// scheduler draws from.
	sched        func(r *rng.RNG) core.Scheduler
	blockSize    int
	splitFuse    bool    // chunked prefill as SplitFuse configures it
	speedup      float64 // static kernel multiplier fed to the perf model
	iterOverhead float64 // per-iteration framework overhead, seconds
}

func conservative(*rng.RNG) core.Scheduler { return core.MustNewConservative(1.0) }

// fig9Frameworks lists the frameworks in the paper's legend order.
var fig9Frameworks = []fig9Framework{
	// TGI budgets input + max_new_tokens, over slower kernels.
	{"TGI", conservative, 1, false, 0.95, 0.005},
	// vLLM admits up to a watermark over PagedAttention's 16-token blocks.
	{"vLLM", func(*rng.RNG) core.Scheduler { return core.MustNewAggressive(0.97) }, 16, false, 1.0, 0.004},
	// DeepSpeed-MII (FastGen) budgets like TGI with chunked prefill.
	{"DeepSpeed-MII", conservative, 1, true, 1.0, 0.004},
	// TensorRT-LLM budgets like TGI over fast static kernels.
	{"TensorRT-LLM", conservative, 1, false, 1.25, 0.002},
	// LightLLM runs Past-Future over token-granular KV (TokenAttention)
	// behind a multi-process async router (low overhead).
	{"LightLLM", func(r *rng.RNG) core.Scheduler {
		return core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.03, Rng: r})
	}, 1, false, 1.0, 0.003},
}

// newEngine builds the framework's engine serving spec on cluster, its
// scheduler drawing from rng.New(seed). It fails when the model does not fit
// the cluster.
func (f fig9Framework) newEngine(spec model.Spec, cluster hw.Cluster, seed uint64, queueTimeout float64, seedHist []int) (*engine.Engine, error) {
	pm, err := perf.New(perf.Config{Model: spec, Cluster: cluster, Speedup: f.speedup, IterOverhead: f.iterOverhead})
	if err != nil {
		return nil, err
	}
	cfg := engine.Config{
		Perf:         pm,
		Scheduler:    f.sched(rng.New(seed)),
		BlockSize:    f.blockSize,
		QueueTimeout: queueTimeout,
		SeedHistory:  seedHist,
	}
	if f.splitFuse {
		cfg = SplitFuse(cfg)
	}
	return engine.New(cfg)
}

// Fig9Cell is one (model, hardware, framework) result: the framework's best
// throughput and best goodput across client counts, mirroring Figure 9's
// dashed (throughput) and solid (goodput) bars.
type Fig9Cell struct {
	Model     string
	Hardware  string
	Framework string
	// MaxThroughput is the best raw token throughput over client counts.
	MaxThroughput float64
	// MaxGoodput is the best SLA-constrained throughput.
	MaxGoodput float64
	// GoodputFrac is MaxGoodput / MaxThroughput.
	GoodputFrac float64
}

// Fig9Result holds every cell.
type Fig9Result struct {
	Cells []Fig9Cell
}

// Cell returns the (model-prefix, hardware-prefix, framework) cell, or nil.
func (f *Fig9Result) Cell(modelPrefix, hwPrefix, framework string) *Fig9Cell {
	for i := range f.Cells {
		c := &f.Cells[i]
		if startsWith(c.Model, modelPrefix) && startsWith(c.Hardware, hwPrefix) && c.Framework == framework {
			return c
		}
	}
	return nil
}

// Fig9Options filters the sweep.
type Fig9Options struct {
	Options
	// Models filters model rows by prefix; empty = all.
	Models []string
	// Hardware filters cluster names by prefix; empty = all.
	Hardware []string
}

// RunFigure9 reproduces Figure 9: end-to-end throughput and goodput of the
// emulated frameworks (TGI, vLLM, DeepSpeed-MII, TensorRT-LLM, LightLLM) on
// the ShareGPT workload (max_new_tokens = 2048) across hardware platforms.
func RunFigure9(fopts Fig9Options) *Fig9Result {
	opts := fopts.Options.normalized()
	type setup struct {
		spec     model.Spec
		clusters []hw.Cluster
		sla      metrics.SLA
		clients  []int
	}
	smallClients := []int{50, 100, 200, 400}
	bigClients := []int{200, 500, 1000}
	if opts.Scale < 0.3 {
		smallClients = []int{100, 400}
		bigClients = []int{200, 1000}
	}
	setups := []setup{
		{model.Llama2_7B,
			[]hw.Cluster{hw.NewCluster(hw.A100_80G, 1), hw.NewCluster(hw.H800, 1), hw.NewCluster(hw.RTX4090, 1), hw.NewCluster(hw.A30, 1)},
			metrics.SLASmall, smallClients},
		{model.Llama2_13B,
			[]hw.Cluster{hw.NewCluster(hw.A100_80G, 1), hw.NewCluster(hw.H800, 1), hw.NewCluster(hw.RTX4090, 2)},
			metrics.SLASmall, smallClients},
		{model.Llama2_70B,
			[]hw.Cluster{hw.NewCluster(hw.A100_80G, 4), hw.NewCluster(hw.H800, 4), hw.NewCluster(hw.RTX4090, 8)},
			metrics.SLALarge, bigClients},
	}

	duration := 600 * opts.Scale
	if duration < 90 {
		duration = 90
	}
	warmup := duration / 3

	res := &Fig9Result{}
	for _, st := range setups {
		if !nameSelected(st.spec.Name, fopts.Models) {
			continue
		}
		for _, cluster := range st.clusters {
			if !nameSelected(cluster.Name(), fopts.Hardware) {
				continue
			}
			tbl := &Table{
				Title:  fmt.Sprintf("Figure 9: %s on %s (ShareGPT, max_new_tokens=2048, SLA %s)", st.spec.Name, cluster.Name(), st.sla),
				Header: []string{"Framework", "MaxThroughput(tok/s)", "MaxGoodput(tok/s)", "Goodput/Throughput"},
			}
			seedHist := historySample(workload.ShareGPT, opts.Seed+99, 500, 2048)
			for fi, fw := range fig9Frameworks {
				cell := Fig9Cell{Model: st.spec.Name, Hardware: cluster.Name(), Framework: fw.name}
				for _, clients := range st.clients {
					seed := opts.Seed + uint64(fi*10_000+clients)
					eng, err := fw.newEngine(st.spec, cluster, seed, st.sla.TTFT, seedHist)
					if err != nil {
						// Model does not fit this cluster with this framework.
						continue
					}
					workload.NewClosedLoop(eng, workload.ShareGPT, rng.New(seed+3), clients, 2048, 0, duration)
					r := eng.RunUntil(duration)
					sum := metrics.Summarize(r.Finished, st.sla, warmup, duration)
					sum.AddTimedOut(r.TimedOut, warmup, duration)
					if sum.Throughput > cell.MaxThroughput {
						cell.MaxThroughput = sum.Throughput
					}
					if sum.Goodput > cell.MaxGoodput {
						cell.MaxGoodput = sum.Goodput
					}
				}
				if cell.MaxThroughput > 0 {
					cell.GoodputFrac = cell.MaxGoodput / cell.MaxThroughput
				}
				res.Cells = append(res.Cells, cell)
				tbl.Add(cell.Framework, f0tok(cell.MaxThroughput), f0tok(cell.MaxGoodput), f2(cell.GoodputFrac))
			}
			tbl.Fprint(opts.Out)
		}
	}
	return res
}
