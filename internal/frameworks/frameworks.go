// Package frameworks provides emulation presets for the serving frameworks
// the paper compares in §5.4 (Figure 9): each preset is the combination of
// scheduling policy, KV allocation granularity, iteration strategy, kernel
// speed multiplier, and per-iteration overhead that characterises the
// framework's scheduling-visible behaviour (December-2023 versions, like the
// paper):
//
//   - LightLLM: Past-Future scheduler, token-granular KV (TokenAttention),
//     prefill-priority, multi-process async router (low overhead).
//   - vLLM: aggressive scheduler, PagedAttention (16-token blocks).
//   - TGI: conservative scheduler (input + max_new_tokens budgeting).
//   - DeepSpeed-MII (FastGen): conservative scheduler + splitfuse chunked
//     prefill.
//   - TensorRT-LLM: conservative scheduler over fast static kernels.
//
// The paper's point — and what these presets preserve — is that end-to-end
// goodput differences are dominated by the scheduler, not kernel speed.
package frameworks

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// SchedulerKind names an admission policy family.
type SchedulerKind int

const (
	// PastFuture is the paper's scheduler.
	PastFuture SchedulerKind = iota
	// Aggressive is the vLLM-style watermark scheduler.
	Aggressive
	// Conservative is the TGI/MII/TRT-LLM-style worst-case scheduler.
	Conservative
	// OracleSched is the theoretical optimum (not a real framework; used by
	// Table 1).
	OracleSched
)

// Preset describes one emulated framework.
type Preset struct {
	// Name is the framework's display name.
	Name string
	// Kind selects the scheduler family; Param is its knob (reserved
	// fraction, watermark, or overcommit — per family).
	Kind  SchedulerKind
	Param float64
	// BlockSize is the KV allocation granularity.
	BlockSize int
	// Strategy is the iteration composition.
	Strategy engine.Strategy
	// Speedup is the static kernel multiplier fed to the perf model.
	Speedup float64
	// IterOverhead is the per-iteration framework overhead in seconds.
	IterOverhead float64
}

// The emulated frameworks. Overheads and speedups are fixed calibration
// constants (see package comment); the scheduler choice is what the paper
// attributes the goodput differences to.
var (
	LightLLM = Preset{
		Name: "LightLLM", Kind: PastFuture, Param: 0.03,
		BlockSize: 1, Strategy: engine.PrefillPriority,
		Speedup: 1.0, IterOverhead: 0.003,
	}
	VLLM = Preset{
		Name: "vLLM", Kind: Aggressive, Param: 0.97,
		BlockSize: 16, Strategy: engine.PrefillPriority,
		Speedup: 1.0, IterOverhead: 0.004,
	}
	TGI = Preset{
		Name: "TGI", Kind: Conservative, Param: 1.0,
		BlockSize: 1, Strategy: engine.PrefillPriority,
		Speedup: 0.95, IterOverhead: 0.005,
	}
	DeepSpeedMII = Preset{
		Name: "DeepSpeed-MII", Kind: Conservative, Param: 1.0,
		BlockSize: 1, Strategy: engine.SplitFuse,
		Speedup: 1.0, IterOverhead: 0.004,
	}
	TensorRTLLM = Preset{
		Name: "TensorRT-LLM", Kind: Conservative, Param: 1.0,
		BlockSize: 1, Strategy: engine.PrefillPriority,
		Speedup: 1.25, IterOverhead: 0.002,
	}
)

// All lists the Figure 9 comparison set in the paper's legend order.
func All() []Preset {
	return []Preset{TGI, VLLM, DeepSpeedMII, TensorRTLLM, LightLLM}
}

// NewScheduler instantiates the preset's scheduler. The RNG is consumed by
// sampling schedulers (Past-Future); deterministic ones ignore it.
func (p Preset) NewScheduler(r *rng.RNG) (core.Scheduler, error) {
	switch p.Kind {
	case PastFuture:
		return core.NewPastFuture(core.PastFutureConfig{Reserved: p.Param, Rng: r})
	case Aggressive:
		return core.NewAggressive(p.Param)
	case Conservative:
		return core.NewConservative(p.Param)
	case OracleSched:
		return core.NewOracle(), nil
	default:
		return nil, fmt.Errorf("frameworks: unknown scheduler kind %d", p.Kind)
	}
}

// DeployOptions are deployment-level knobs shared by all presets.
type DeployOptions struct {
	// QueueTimeout enables SLA-aware client abandonment (engine.Config).
	QueueTimeout float64
	// SeedHistory warm-starts the output-length history window.
	SeedHistory []int
}

// NewEngineOpts builds a ready engine for the preset serving spec on
// cluster, deployed with opts.
func (p Preset) NewEngineOpts(spec model.Spec, cluster hw.Cluster, seed uint64, opts DeployOptions) (*engine.Engine, error) {
	pm, err := perf.New(perf.Config{
		Model:        spec,
		Cluster:      cluster,
		Speedup:      p.Speedup,
		IterOverhead: p.IterOverhead,
	})
	if err != nil {
		return nil, err
	}
	sched, err := p.NewScheduler(rng.New(seed))
	if err != nil {
		return nil, err
	}
	return engine.New(engine.Config{
		Perf:         pm,
		Scheduler:    sched,
		BlockSize:    p.BlockSize,
		Strategy:     p.Strategy,
		QueueTimeout: opts.QueueTimeout,
		SeedHistory:  opts.SeedHistory,
	})
}
