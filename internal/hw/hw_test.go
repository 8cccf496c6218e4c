package hw

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/model"
)

func TestClusterName(t *testing.T) {
	if got := NewCluster(A100_80G, 1).Name(); got != "A100-80G" {
		t.Fatalf("name = %q", got)
	}
	if got := NewCluster(A100_80G, 4).Name(); got != "A100-80G x4" {
		t.Fatalf("name = %q", got)
	}
}

func TestNewClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TP=0 did not panic")
		}
	}()
	NewCluster(A100_80G, 0)
}

func TestKVCapacity7BOnA100(t *testing.T) {
	c := NewCluster(A100_80G, 1)
	capTokens, err := c.KVCapacityTokens(model.Llama2_7B)
	if err != nil {
		t.Fatal(err)
	}
	// usable = 80e9*0.9 - 13.476e9 = 58.524e9; / 524288 ≈ 111.6k tokens.
	if capTokens < 100_000 || capTokens > 125_000 {
		t.Fatalf("7B capacity on A100 = %d tokens, want ~111k", capTokens)
	}
}

func TestKVCapacity70BNeedsTP(t *testing.T) {
	single := NewCluster(A100_80G, 1)
	if _, err := single.KVCapacityTokens(model.Llama2_70B); err == nil {
		t.Fatal("70B cannot fit on one A100-80G")
	}
	quad := NewCluster(A100_80G, 4)
	capTokens, err := quad.KVCapacityTokens(model.Llama2_70B)
	if err != nil {
		t.Fatal(err)
	}
	// usable = 320e9*0.9 - 137.954e9 ≈ 150e9; / 327680 ≈ 458k tokens.
	if capTokens < 400_000 || capTokens > 500_000 {
		t.Fatalf("70B capacity on 4xA100 = %d", capTokens)
	}
}

func TestCapacityMonotoneInTP(t *testing.T) {
	one, err := NewCluster(A100_80G, 1).KVCapacityTokens(model.Llama2_13B)
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewCluster(A100_80G, 2).KVCapacityTokens(model.Llama2_13B)
	if err != nil {
		t.Fatal(err)
	}
	if two <= one {
		t.Fatalf("capacity not monotone in TP: %d vs %d", one, two)
	}
}

func TestEffectiveThroughputTPEfficiency(t *testing.T) {
	one := NewCluster(A100_80G, 1)
	four := NewCluster(A100_80G, 4)
	if one.EffectiveFLOPS() != A100_80G.FLOPS {
		t.Fatal("TP=1 must have no efficiency penalty")
	}
	// 4-way NVLink: 4 * 0.85 = 3.4x, not 4x.
	ratio := four.EffectiveFLOPS() / one.EffectiveFLOPS()
	if ratio <= 3.0 || ratio >= 4.0 {
		t.Fatalf("4-way TP flops ratio = %v", ratio)
	}
}

func TestPCIeWorseThanNVLink(t *testing.T) {
	nv := NewCluster(A100_80G, 2)
	pcie := NewCluster(RTX4090, 2)
	nvRatio := nv.EffectiveBandwidth() / (2 * A100_80G.BandwidthBytesPerSec)
	pcieRatio := pcie.EffectiveBandwidth() / (2 * RTX4090.BandwidthBytesPerSec)
	if pcieRatio >= nvRatio {
		t.Fatalf("PCIe efficiency %v should be below NVLink %v", pcieRatio, nvRatio)
	}
}

func TestSmallGPUCapacity(t *testing.T) {
	a30 := NewCluster(A30, 1)
	capTokens, err := a30.KVCapacityTokens(model.Llama2_7B)
	if err != nil {
		t.Fatal(err)
	}
	// 24e9*0.9 - 13.5e9 ≈ 8.1e9 / 524288 ≈ 15.4k tokens: tight but positive.
	if capTokens < 10_000 || capTokens > 20_000 {
		t.Fatalf("7B capacity on A30 = %d", capTokens)
	}
	// 13B does not fit on A30 (26 GB weights > 21.6 GB usable).
	if _, err := a30.KVCapacityTokens(model.Llama2_13B); err == nil {
		t.Fatal("13B should not fit on A30")
	}
}

func TestKVCapacityRejectsInvalidSpec(t *testing.T) {
	bad := model.Spec{Name: "bad"}
	if _, err := NewCluster(A100_80G, 1).KVCapacityTokens(bad); err == nil {
		t.Fatal("invalid spec should error")
	}
}

func TestCostWeights(t *testing.T) {
	// The A100-80G is the baseline: weight exactly 1.0 at TP=1, scaling
	// linearly with the TP degree.
	if w := NewCluster(A100_80G, 1).CostWeight(); w != 1.0 {
		t.Fatalf("A100-80G x1 cost weight %v, want 1.0", w)
	}
	if w := NewCluster(A100_80G, 4).CostWeight(); w != 4.0 {
		t.Fatalf("A100-80G x4 cost weight %v, want 4.0", w)
	}
	// Relative prices: H800 above baseline, 4090 and A30 below.
	if w := NewCluster(H800, 1).CostWeight(); w <= 1.0 {
		t.Fatalf("H800 cost weight %v, want > 1", w)
	}
	for _, g := range []GPU{RTX4090, A30} {
		if w := NewCluster(g, 1).CostWeight(); w <= 0 || w >= 1.0 {
			t.Fatalf("%s cost weight %v, want in (0,1)", g.Name, w)
		}
	}
	// An unpriced custom GPU is cost-neutral, not free.
	custom := GPU{Name: "custom", MemBytes: 80e9, BandwidthBytesPerSec: 1e12, FLOPS: 100e12}
	if w := NewCluster(custom, 1).CostWeight(); w != 1.0 {
		t.Fatalf("unpriced GPU cost weight %v, want the neutral 1.0", w)
	}
	if got := custom.HourlyCost(); got != costBaselinePerHour {
		t.Fatalf("unpriced hourly cost %v, want baseline %v", got, costBaselinePerHour)
	}
}
