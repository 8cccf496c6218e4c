// Package perf is the analytic GPU latency model behind the serving
// simulator. It substitutes for the paper's CUDA/Triton backend: the
// scheduler experiments only need iteration *durations* that scale the way
// real hardware scales —
//
//   - prefill is compute-bound: time ≈ prompt_tokens × FLOPs/token ÷
//     achievable FLOPs, floored by one pass over the weights;
//   - decode is bandwidth-bound: every step streams the full weights plus
//     the active KV cache, so time grows with the batch's KV footprint;
//   - each iteration pays a fixed framework overhead (scheduler + launch
//     latency), which differs between the emulated frameworks;
//   - chunked-prefill iterations mix both cost terms.
//
// Efficiency factors (fraction of peak FLOPs/bandwidth achieved) are fixed
// calibration constants, not fitted per experiment.
package perf

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
)

// Config describes one model deployment whose iteration times we model.
type Config struct {
	Model   model.Spec
	Cluster hw.Cluster

	// IterOverhead is the fixed per-iteration framework overhead in seconds
	// (CPU scheduling, kernel launches, tokenization hand-off). 0 selects
	// the default (3 ms). Negative disables the default and means zero.
	IterOverhead float64
	// Speedup is a static kernel-quality multiplier (>1 = faster than the
	// reference implementation; TensorRT-LLM uses ~1.25). 0 selects 1.0.
	Speedup float64
}

const (
	// flopsEff is the fraction of peak tensor FLOPs prefill GEMMs achieve.
	flopsEff = 0.55
	// bwEff is the fraction of peak memory bandwidth decode achieves.
	bwEff = 0.80
	// chunkOverhead is the fixed per-chunk cost of chunked prefill in
	// seconds (attention re-reads the landed prefix KV once per chunk, plus
	// chunk launch bookkeeping) — what makes total prefill compute strictly
	// monotone in chunk count.
	chunkOverhead = 0.0005
	// defaultOverhead is IterOverhead's default.
	defaultOverhead = 0.003
)

// Model computes iteration latencies for one deployment.
type Model struct {
	spec     model.Spec
	cluster  hw.Cluster
	capacity int

	flops    float64 // achievable FLOP/s
	bw       float64 // achievable bytes/s
	overhead float64 // seconds per iteration

	// The spec's per-token constants as the iteration prices use them, read
	// once: a decode step is priced once per simulated step, twice when the
	// step is part of a run of coasted steps the cluster schedules ahead.
	flopsPerToken float64
	weightBytes   float64
	kvPerToken    float64
}

// New validates the config and derives the deployment's KV capacity.
func New(cfg Config) (*Model, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	capacity, err := cfg.Cluster.KVCapacityTokens(cfg.Model)
	if err != nil {
		return nil, err
	}
	oh := cfg.IterOverhead
	if oh == 0 {
		oh = defaultOverhead
	} else if oh < 0 {
		oh = 0
	}
	sp := cfg.Speedup
	if sp == 0 {
		sp = 1.0
	}
	if sp < 0 {
		return nil, fmt.Errorf("perf: negative speedup %v", sp)
	}
	return &Model{
		spec:     cfg.Model,
		cluster:  cfg.Cluster,
		capacity: capacity,
		flops:    cfg.Cluster.EffectiveFLOPS() * flopsEff * sp,
		bw:       cfg.Cluster.EffectiveBandwidth() * bwEff * sp,
		overhead: oh,

		flopsPerToken: cfg.Model.FLOPsPerToken(),
		weightBytes:   float64(cfg.Model.WeightBytes()),
		kvPerToken:    float64(cfg.Model.KVBytesPerToken()),
	}, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Spec returns the model architecture being served.
func (m *Model) Spec() model.Spec { return m.spec }

// Cluster returns the hardware configuration.
func (m *Model) Cluster() hw.Cluster { return m.cluster }

// CapacityTokens returns the KV-cache capacity in token slots.
func (m *Model) CapacityTokens() int { return m.capacity }

// CostWeight returns the deployment's normalized provisioning cost per
// replica-second (hw.Cluster.CostWeight: 1.0 = one A100-80G), the flavor
// weight behind the heterogeneous fleet's CostSeconds axis.
func (m *Model) CostWeight() float64 { return m.cluster.CostWeight() }

// PrefillTime returns the duration of one prefill iteration processing
// promptTokens total prompt tokens (possibly from several fused requests).
func (m *Model) PrefillTime(promptTokens int) float64 {
	if promptTokens <= 0 {
		return 0
	}
	compute := float64(promptTokens) * m.flopsPerToken / m.flops
	weights := m.weightBytes / m.bw
	return m.overhead + maxf(compute, weights)
}

// PrefillMarginal returns the extra prefill time from adding extra prompt
// tokens to an iteration already processing base tokens — the recompute
// price the prefix-cache restore decision weighs against the offload tier's
// wire time. Marginal cost can be zero while the iteration sits on the
// weight-pass floor.
func (m *Model) PrefillMarginal(base, extra int) float64 {
	if extra <= 0 {
		return 0
	}
	if base < 0 {
		base = 0
	}
	return m.PrefillTime(base+extra) - m.PrefillTime(base)
}

// DecodeTime returns the duration of one decode step for a batch of
// batchSize requests whose KV caches total kvTokens tokens.
func (m *Model) DecodeTime(batchSize, kvTokens int) float64 {
	if batchSize <= 0 {
		return 0
	}
	compute := float64(batchSize) * m.flopsPerToken / m.flops
	bytes := m.weightBytes + float64(kvTokens)*m.kvPerToken
	memory := bytes / m.bw
	return m.overhead + maxf(compute, memory)
}

// ChunkOverhead returns the fixed per-chunk cost of chunked prefill in
// seconds. An N-chunk prefill pays N·ChunkOverhead on top of the fused
// prefill compute, so splitting is never free.
func (m *Model) ChunkOverhead() float64 { return chunkOverhead }

// ChunkedTime returns the duration of one chunked-prefill iteration:
// chunkTokens prompt tokens (across chunks prefill chunks, each paying the
// per-chunk overhead) fused with a decodeBatch-wide decode step against a
// running KV footprint of kvTokens. With chunks == 0 it is DecodeTime over
// the iteration's tokens, which is how a pure-decode iteration under chunked
// scheduling prices identically to a plain decode step.
func (m *Model) ChunkedTime(chunkTokens, chunks, decodeBatch, kvTokens int) float64 {
	t := m.DecodeTime(chunkTokens+decodeBatch, kvTokens)
	if chunks > 0 {
		t += float64(chunks) * chunkOverhead
	}
	return t
}

// PrefillTokensWithin returns the largest number of prompt tokens whose
// compute term fits the given budget — the slack-aware chunk sizer's
// inversion of PrefillTime's compute component. It ignores the fixed
// iteration overhead and the weight-pass floor (those are paid once per
// iteration regardless of chunk size) and never returns less than 1, so a
// starved budget still makes forward progress. Allocation-free.
func (m *Model) PrefillTokensWithin(budget float64) int {
	if budget <= 0 {
		return 1
	}
	n := int(budget * m.flops / m.spec.FLOPsPerToken())
	if n < 1 {
		return 1
	}
	return n
}

// SwapTime returns the time to move tokens' worth of KV cache across the
// host link (one direction) — the cost of swap-based eviction recovery.
func (m *Model) SwapTime(tokens int) float64 {
	if tokens <= 0 {
		return 0
	}
	bytes := float64(tokens) * float64(m.spec.KVBytesPerToken())
	return bytes / m.cluster.GPU.HostLink()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
