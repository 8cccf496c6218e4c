package lightllm

// One benchmark per table and figure of the paper (PAPER.md), each
// regenerating the experiment at reduced scale, plus micro-benchmarks of
// the scheduler's hot paths. Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-scale experiment output comes from `go run ./cmd/pfsim -exp all`.

import (
	"testing"
)

func BenchmarkTable1_SchedulerComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunTable1(BenchOptions{Seed: 1, Scale: 0.02})
		if len(res.Rows) != 27 {
			b.Fatal("table 1 incomplete")
		}
	}
}

func BenchmarkTable2_Multimodal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunTable2(BenchOptions{Seed: 1, Scale: 0.05})
		b.ReportMetric(res.Rows[0].Speedup, "qwen-speedup")
	}
}

func BenchmarkFigure1_MemoryComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunFigure1(BenchOptions{Seed: 1, Scale: 0.05})
		if len(res.Cells) != 6 {
			b.Fatal("figure 1 incomplete")
		}
	}
}

func BenchmarkFigure3_WindowSimilarity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunFigure3(BenchOptions{Seed: 1, Scale: 0.2})
		b.ReportMetric(res.Rows[0].Diagonal, "conv-diagonal")
	}
}

func BenchmarkFigure4_WindowSizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunFigure4(BenchOptions{Seed: 1, Scale: 0.25})
		if len(res.Rows) == 0 {
			b.Fatal("figure 4 empty")
		}
	}
}

func BenchmarkFigure5_AdmissionTiming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunFigure5(BenchOptions{})
		if res.PeakAtT != 19 || res.PeakAtT1 != 18 {
			b.Fatal("figure 5 numbers wrong")
		}
	}
}

func BenchmarkFigure6_ToyScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunFigure6(BenchOptions{})
		if res.AdmitStep["looking-to-future"] != 1 {
			b.Fatal("figure 6 behaviour wrong")
		}
	}
}

func BenchmarkFigure7_GoodputVsClients(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunFigure7(BenchOptions{Seed: 1, Scale: 0.15},
			[]string{"Llama2-7B"}, []string{"ShareGPT-o1"})
		panel := res.Panel("Llama2-7B-Chat", "ShareGPT-o1")
		if c := panel.Curve("past-future"); c != nil {
			b.ReportMetric(c.PeakGoodput(), "pf-peak-goodput")
		}
	}
}

func BenchmarkFigure8_ParameterSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunFigure8(BenchOptions{Seed: 1, Scale: 0.05})
		if len(res.Points) != 19 {
			b.Fatal("figure 8 incomplete")
		}
	}
}

func BenchmarkFigure9_FrameworkComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunFigure9(BenchOptions{Seed: 1, Scale: 0.15},
			[]string{"Llama2-7B"}, []string{"A100-80G"})
		if ll := res.Cell("Llama2-7B", "A100-80G", "LightLLM"); ll != nil {
			b.ReportMetric(ll.MaxGoodput, "lightllm-goodput")
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunAblation(BenchOptions{Seed: 1, Scale: 0.03})
		if len(res.Rows) == 0 {
			b.Fatal("ablation empty")
		}
	}
}

// Micro-benchmarks of the serving hot path.

func BenchmarkServeShareGPT100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, err := NewServing(ServingConfig{Model: "Llama2-7B-Chat", GPU: "A100-80G"})
		if err != nil {
			b.Fatal(err)
		}
		eng.SubmitAll(BuildWorkload(ShareGPT, NewRNG(1), 100, 1, 1024))
		res := eng.Run()
		b.ReportMetric(res.Throughput(), "sim-tok/s")
	}
}

func BenchmarkClosedLoop40Clients(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, err := NewServing(ServingConfig{
			Model: "Llama2-7B-Chat", GPU: "A100-80G", QueueTimeout: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		NewClosedLoop(eng, ShareGPTO1, NewRNG(2), 40, 8192, 0, 60)
		eng.RunUntil(60)
	}
}
