package lightllm

import (
	"reflect"
	"slices"
	"testing"

	"github.com/lightllm-go/lightllm/internal/engine"
)

func TestNewServingDefaults(t *testing.T) {
	eng, err := NewServing(ServingConfig{Model: "Llama2-7B-Chat", GPU: "A100-80G"})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(1)
	eng.SubmitAll(BuildWorkload(ShareGPT, r, 25, 1, 512))
	res := eng.Run()
	if len(res.Finished) != 25 {
		t.Fatalf("finished %d of 25", len(res.Finished))
	}
	if res.Scheduler != "past-future(reserved=3%)" {
		t.Fatalf("default scheduler = %q", res.Scheduler)
	}
}

func TestNewServingErrors(t *testing.T) {
	if _, err := NewServing(ServingConfig{Model: "nope", GPU: "A100-80G"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := NewServing(ServingConfig{Model: "Llama2-7B-Chat", GPU: "nope"}); err == nil {
		t.Fatal("unknown GPU accepted")
	}
	if _, err := NewServing(ServingConfig{Model: "Llama2-70B-Chat", GPU: "A30"}); err == nil {
		t.Fatal("70B on A30 accepted")
	}
	if _, err := NewServing(ServingConfig{Model: "Llama2-7B-Chat", GPU: "A100-80G", Scheduler: "wat"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

// TestNewServingStrategies serves one batch under every ServingConfig.Strategy
// name and checks the iterations each engine runs: fused prefill and decode
// under both names of the default, chunked iterations only under
// "splitfuse", and static batches of the default 8 under "static".
func TestNewServingStrategies(t *testing.T) {
	const n = 20
	for _, tc := range []struct {
		strategy string
		kinds    []string // every iteration kind the engine runs, sorted
	}{
		{"", []string{"decode", "prefill"}},
		{"prefill-priority", []string{"decode", "prefill"}},
		{"splitfuse", []string{"chunked"}},
		{"static", []string{"static"}},
	} {
		eng, err := NewServing(ServingConfig{Model: "Llama2-7B-Chat", GPU: "A100-80G", Strategy: tc.strategy})
		if err != nil {
			t.Fatalf("%q: %v", tc.strategy, err)
		}
		var kinds []string
		widest := 0
		eng.AddIterationHook(func(_ float64, it engine.Iteration) {
			if !slices.Contains(kinds, it.Kind) {
				kinds = append(kinds, it.Kind)
			}
			widest = max(widest, it.BatchSize)
		})
		eng.SubmitAll(BuildWorkload(ShareGPT, NewRNG(1), n, 1, 256))
		if res := eng.Run(); len(res.Finished) != n {
			t.Fatalf("%q: finished %d of %d", tc.strategy, len(res.Finished), n)
		}
		slices.Sort(kinds)
		if !reflect.DeepEqual(kinds, tc.kinds) {
			t.Errorf("%q ran %v iterations, want %v", tc.strategy, kinds, tc.kinds)
		}
		if tc.strategy == "static" && widest != 8 {
			t.Errorf("static batches hold up to %d requests, want the default 8", widest)
		}
	}
	for _, cfg := range []ServingConfig{
		{Model: "Llama2-7B-Chat", GPU: "A100-80G", Strategy: "wat"},
		{Model: "Llama2-7B-Chat", GPU: "A100-80G", Strategy: "static", StaticBatchSize: -1},
	} {
		if _, err := NewServing(cfg); err == nil {
			t.Errorf("strategy %q with static batch %d accepted", cfg.Strategy, cfg.StaticBatchSize)
		}
	}
}

func TestNewSchedulerFamilies(t *testing.T) {
	cases := []struct{ name, want string }{
		{"past-future", "past-future(reserved=3%)"},
		{"pf", "past-future(reserved=3%)"},
		{"aggressive", "aggressive(watermark=97%)"},
		{"vllm", "aggressive(watermark=97%)"},
		{"conservative", "conservative"},
		{"oracle", "oracle"},
		{"", "past-future(reserved=3%)"},
	}
	for _, c := range cases {
		s, err := NewScheduler(c.name, 0, 1)
		if err != nil {
			t.Fatalf("%q: %v", c.name, err)
		}
		if s.Name() != c.want {
			t.Fatalf("%q -> %q, want %q", c.name, s.Name(), c.want)
		}
	}
}

func TestClosedLoopFacade(t *testing.T) {
	eng, err := NewServing(ServingConfig{
		Model: "Llama2-7B-Chat", GPU: "A100-80G", Scheduler: "past-future", QueueTimeout: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	NewClosedLoop(eng, ShareGPT, NewRNG(2), 10, 1024, 0, 30)
	res := eng.RunUntil(30)
	sum := Summarize(res.Finished, SLASmall, 5, 30)
	if sum.Total == 0 {
		t.Fatal("no requests finished in window")
	}
	if sum.Goodput <= 0 {
		t.Fatal("no goodput")
	}
}

func TestExperimentRunnersSmoke(t *testing.T) {
	if r := RunFigure5(BenchOptions{}); r.PeakAtT != 19 {
		t.Fatal("figure 5 runner broken")
	}
	if r := RunFigure6(BenchOptions{}); r.AdmitStep["looking-to-future"] != 1 {
		t.Fatal("figure 6 runner broken")
	}
}
