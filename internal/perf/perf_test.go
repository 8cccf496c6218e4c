package perf

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
)

func a100_7b(t *testing.T) *Model {
	t.Helper()
	m, err := New(Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCapacityExposed(t *testing.T) {
	m := a100_7b(t)
	if m.CapacityTokens() < 100_000 || m.CapacityTokens() > 125_000 {
		t.Fatalf("capacity = %d", m.CapacityTokens())
	}
}

func TestPrefillScalesWithTokens(t *testing.T) {
	m := a100_7b(t)
	t1 := m.PrefillTime(1000)
	t4 := m.PrefillTime(4000)
	if t4 <= t1 {
		t.Fatalf("prefill not increasing: %v vs %v", t1, t4)
	}
	// In the compute-bound regime the marginal cost is linear.
	t8 := m.PrefillTime(8000)
	marginal1 := t8 - t4
	marginal2 := t4 - m.PrefillTime(0)
	if marginal1 <= 0 || marginal2 <= 0 {
		t.Fatal("prefill marginals must be positive")
	}
}

func TestPrefillRealisticMagnitude(t *testing.T) {
	m := a100_7b(t)
	// 4k-token prompt on 7B/A100: hundreds of milliseconds, not seconds,
	// not microseconds.
	got := m.PrefillTime(4000)
	if got < 0.05 || got > 2.0 {
		t.Fatalf("prefill(4000) = %vs, implausible", got)
	}
}

func TestDecodeBandwidthBound(t *testing.T) {
	m := a100_7b(t)
	// With a large KV footprint, decode time must grow with KV tokens.
	small := m.DecodeTime(16, 10_000)
	large := m.DecodeTime(16, 100_000)
	if large <= small {
		t.Fatalf("decode not KV-sensitive: %v vs %v", small, large)
	}
}

func TestDecodeRealisticMagnitude(t *testing.T) {
	m := a100_7b(t)
	// Full KV, moderate batch: tens of milliseconds per step.
	got := m.DecodeTime(20, 110_000)
	if got < 0.01 || got > 0.3 {
		t.Fatalf("decode step = %vs, implausible", got)
	}
}

func TestDecodeThroughputImprovesWithBatch(t *testing.T) {
	m := a100_7b(t)
	// Batching amortizes the weight read: tokens/s must increase with batch
	// size at fixed KV-per-request.
	tp1 := 1 / m.DecodeTime(1, 2000)
	tp16 := 16 / m.DecodeTime(16, 32_000)
	if tp16 <= tp1 {
		t.Fatalf("batching did not help: %v vs %v tok/s", tp1, tp16)
	}
}

func TestZeroWorkZeroTime(t *testing.T) {
	m := a100_7b(t)
	if m.PrefillTime(0) != 0 || m.DecodeTime(0, 1000) != 0 || m.ChunkedTime(0, 0, 0, 10) != 0 {
		t.Fatal("zero work must take zero time")
	}
}

func TestMixedBetweenPrefillAndDecode(t *testing.T) {
	m := a100_7b(t)
	// A chunked step doing 256 tokens of work over the same KV footprint
	// costs at least a plain decode step of the same batch and less than a
	// monolithic 4k prefill.
	mixed := m.ChunkedTime(240, 1, 16, 50_000)
	if mixed < m.DecodeTime(1, 50_000) {
		t.Fatalf("mixed %v below minimal decode", mixed)
	}
	if mixed > m.PrefillTime(4000)+m.DecodeTime(256, 50_000) {
		t.Fatalf("mixed %v implausibly large", mixed)
	}
}

func TestSpeedupReducesTimes(t *testing.T) {
	base := MustNew(Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	fast := MustNew(Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1), Speedup: 1.25})
	if fast.PrefillTime(4000) >= base.PrefillTime(4000) {
		t.Fatal("speedup did not reduce prefill time")
	}
	if fast.DecodeTime(16, 50_000) >= base.DecodeTime(16, 50_000) {
		t.Fatal("speedup did not reduce decode time")
	}
}

func TestOverheadConfigurable(t *testing.T) {
	slow := MustNew(Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1), IterOverhead: 0.010})
	none := MustNew(Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1), IterOverhead: -1})
	d := slow.DecodeTime(1, 100) - none.DecodeTime(1, 100)
	if d < 0.009 || d > 0.011 {
		t.Fatalf("overhead delta = %v, want ~0.010", d)
	}
}

func TestH800FasterThanA100(t *testing.T) {
	a := MustNew(Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	h := MustNew(Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.H800, 1)})
	if h.DecodeTime(32, 80_000) >= a.DecodeTime(32, 80_000) {
		t.Fatal("H800 decode should beat A100")
	}
	if h.PrefillTime(4000) >= a.PrefillTime(4000) {
		t.Fatal("H800 prefill should beat A100")
	}
}

func TestChunkedTimeChargesEachChunk(t *testing.T) {
	m := a100_7b(t)
	if m.ChunkOverhead() != 0.0005 {
		t.Fatalf("chunk overhead %v, want 0.5 ms", m.ChunkOverhead())
	}
	fused := m.ChunkedTime(512, 0, 8, 4096)
	if fused != m.DecodeTime(520, 4096) {
		t.Fatalf("chunkless time %v, want the fused step's %v", fused, m.DecodeTime(520, 4096))
	}
	for _, chunks := range []int{1, 2, 5} {
		got := m.ChunkedTime(512, chunks, 8, 4096) - fused
		want := float64(chunks) * m.ChunkOverhead()
		if d := got - want; d > 1e-12 || d < -1e-12 {
			t.Fatalf("%d chunks add %v s, want %v", chunks, got, want)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Model: model.Llama2_70B, Cluster: hw.NewCluster(hw.A100_80G, 1)}); err == nil {
		t.Fatal("70B on one A100 should error")
	}
	if _, err := New(Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1), Speedup: -1}); err == nil {
		t.Fatal("negative speedup should error")
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{Model: model.Llama2_70B, Cluster: hw.NewCluster(hw.A30, 1)})
}

func Test70BSlowerPerStepThan7B(t *testing.T) {
	m7 := MustNew(Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	m70 := MustNew(Config{Model: model.Llama2_70B, Cluster: hw.NewCluster(hw.A100_80G, 4)})
	// Same batch and KV: the 70B weight stream dominates even with 4 GPUs.
	if m70.DecodeTime(16, 50_000) <= m7.DecodeTime(16, 50_000) {
		t.Fatal("70B on 4xA100 should have slower steps than 7B on 1xA100")
	}
}

func BenchmarkDecodeTime(b *testing.B) {
	m := MustNew(Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	for i := 0; i < b.N; i++ {
		_ = m.DecodeTime(32, 100_000)
	}
}

func TestModelCostWeight(t *testing.T) {
	a100 := MustNew(Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	a30 := MustNew(Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A30, 1)})
	if a100.CostWeight() != 1.0 {
		t.Fatalf("A100-80G model cost weight %v, want 1.0", a100.CostWeight())
	}
	if w := a30.CostWeight(); w <= 0 || w >= a100.CostWeight() {
		t.Fatalf("A30 model cost weight %v, want cheaper than the A100 baseline", w)
	}
}
