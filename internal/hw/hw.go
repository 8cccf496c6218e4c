// Package hw describes the GPU platforms of the paper's evaluation
// (NVIDIA A100-80G, H800, RTX 4090, A30) and tensor-parallel cluster
// configurations, and derives the KV-cache token capacity a given model
// has on a given cluster — the single number every scheduler in this
// repository reasons about.
package hw

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/model"
)

// GPU describes one accelerator.
type GPU struct {
	// Name is the display name.
	Name string
	// MemBytes is the device memory.
	MemBytes int64
	// BandwidthBytesPerSec is the peak HBM/GDDR bandwidth.
	BandwidthBytesPerSec float64
	// FLOPS is the peak dense fp16 tensor throughput.
	FLOPS float64
	// NVLink reports whether multi-GPU configs interconnect via NVLink
	// (affects tensor-parallel efficiency).
	NVLink bool
	// HostLinkBytesPerSec is the effective host↔device bandwidth (PCIe),
	// used by swap-based eviction. 0 selects 25 GB/s (PCIe 4.0 x16).
	HostLinkBytesPerSec float64
	// CostPerHour is the on-demand rental price of one device in USD/hour
	// (public cloud list-price ballpark), the input to cost-aware placement
	// across heterogeneous fleets. 0 selects the A100-80G baseline price, so
	// custom GPUs without a price behave cost-neutrally.
	CostPerHour float64
}

// defaultHostLink is the PCIe bandwidth assumed when a GPU spec omits it.
const defaultHostLink = 25e9

// HostLink returns the effective host-link bandwidth.
func (g GPU) HostLink() float64 {
	if g.HostLinkBytesPerSec > 0 {
		return g.HostLinkBytesPerSec
	}
	return defaultHostLink
}

// Predefined GPUs (public spec-sheet numbers; prices are on-demand cloud
// list-price ballpark figures, used only as *relative* cost weights).
var (
	A100_80G = GPU{Name: "A100-80G", MemBytes: 80e9, BandwidthBytesPerSec: 2.0e12, FLOPS: 312e12, NVLink: true, CostPerHour: 3.67}
	H800     = GPU{Name: "H800", MemBytes: 80e9, BandwidthBytesPerSec: 3.35e12, FLOPS: 790e12, NVLink: true, CostPerHour: 9.98}
	RTX4090  = GPU{Name: "RTX-4090", MemBytes: 24e9, BandwidthBytesPerSec: 1.01e12, FLOPS: 330e12, NVLink: false, CostPerHour: 0.74}
	A30      = GPU{Name: "A30", MemBytes: 24e9, BandwidthBytesPerSec: 933e9, FLOPS: 165e12, NVLink: true, CostPerHour: 1.10}
)

// costBaselinePerHour is the A100-80G on-demand price every cost weight is
// normalized against: a weight of 1.0 means "costs as much per second as
// one A100-80G", so CostSeconds across a mixed fleet read as
// A100-equivalent replica-seconds. Derived from the GPU table so updating
// the A100-80G list price cannot desynchronize the baseline.
var costBaselinePerHour = A100_80G.CostPerHour

// HourlyCost returns the device's rental price, defaulting unpriced GPUs to
// the A100-80G baseline (cost-neutral).
func (g GPU) HourlyCost() float64 {
	if g.CostPerHour > 0 {
		return g.CostPerHour
	}
	return costBaselinePerHour
}

// AllGPUs lists the predefined GPUs.
func AllGPUs() []GPU { return []GPU{A100_80G, H800, RTX4090, A30} }

// GPUByName returns the predefined GPU with the given name.
func GPUByName(name string) (GPU, error) {
	for _, g := range AllGPUs() {
		if g.Name == name {
			return g, nil
		}
	}
	return GPU{}, fmt.Errorf("hw: unknown GPU %q", name)
}

// Cluster is a tensor-parallel group of identical GPUs serving one model
// replica.
type Cluster struct {
	GPU GPU
	// TP is the tensor-parallel degree (number of GPUs).
	TP int
}

// NewCluster builds a cluster, panicking on a non-positive TP degree
// (a construction-time programming error, not a runtime condition).
func NewCluster(gpu GPU, tp int) Cluster {
	if tp <= 0 {
		panic(fmt.Sprintf("hw: non-positive tensor-parallel degree %d", tp))
	}
	return Cluster{GPU: gpu, TP: tp}
}

// Name returns a display name like "A100-80G x4".
func (c Cluster) Name() string {
	if c.TP == 1 {
		return c.GPU.Name
	}
	return fmt.Sprintf("%s x%d", c.GPU.Name, c.TP)
}

// tpEfficiency is the fraction of aggregate compute/bandwidth retained after
// tensor-parallel communication overhead (all-reduce per layer). NVLink
// clusters retain more.
func (c Cluster) tpEfficiency() float64 {
	if c.TP == 1 {
		return 1.0
	}
	if c.GPU.NVLink {
		return 0.85
	}
	return 0.70
}

// TotalMemBytes returns the aggregate device memory.
func (c Cluster) TotalMemBytes() int64 { return c.GPU.MemBytes * int64(c.TP) }

// CostWeight returns the cluster's normalized provisioning cost per
// replica-second: the TP group's hourly rental price over the A100-80G
// baseline. One A100-80G replica weighs 1.0; a 4×A30 replica weighs
// 4×1.10/3.67 ≈ 1.2. Replica-seconds scaled by this weight are the
// CostSeconds axis of heterogeneous-fleet reports.
func (c Cluster) CostWeight() float64 {
	return c.GPU.HourlyCost() * float64(c.TP) / costBaselinePerHour
}

// EffectiveBandwidth returns aggregate memory bandwidth after TP overhead.
func (c Cluster) EffectiveBandwidth() float64 {
	return c.GPU.BandwidthBytesPerSec * float64(c.TP) * c.tpEfficiency()
}

// EffectiveFLOPS returns aggregate fp16 throughput after TP overhead.
func (c Cluster) EffectiveFLOPS() float64 {
	return c.GPU.FLOPS * float64(c.TP) * c.tpEfficiency()
}

// activationReserveFrac is the fraction of device memory held back for
// activations, CUDA context, and framework buffers when deriving the KV
// capacity. Serving frameworks expose a similar knob (vLLM's
// gpu_memory_utilization defaults to 0.90).
const activationReserveFrac = 0.10

// KVCapacityTokens returns the number of KV-cache token slots available for
// the given model on this cluster: usable memory minus weights, divided by
// the model's per-token KV footprint.
func (c Cluster) KVCapacityTokens(spec model.Spec) (int, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	usable := float64(c.TotalMemBytes())*(1-activationReserveFrac) - float64(spec.WeightBytes())
	if usable <= 0 {
		return 0, fmt.Errorf("hw: %s does not fit on %s (weights %d bytes, usable %.0f)",
			spec.Name, c.Name(), spec.WeightBytes(), float64(c.TotalMemBytes())*(1-activationReserveFrac))
	}
	capTokens := int(usable / float64(spec.KVBytesPerToken()))
	if capTokens <= 0 {
		return 0, fmt.Errorf("hw: zero KV capacity for %s on %s", spec.Name, c.Name())
	}
	return capTokens, nil
}
