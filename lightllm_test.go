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

// TestNewServingStrategies serves one batch with and without a static batch
// size and checks the iterations each engine runs: fused prefill and decode
// by default, static batches of the given size when StaticBatchSize is set.
func TestNewServingStrategies(t *testing.T) {
	const n = 20
	for _, tc := range []struct {
		static int
		kinds  []string // every iteration kind the engine runs, sorted
	}{
		{0, []string{"decode", "prefill"}},
		{8, []string{"static"}},
	} {
		eng, err := NewServing(ServingConfig{Model: "Llama2-7B-Chat", GPU: "A100-80G", StaticBatchSize: tc.static})
		if err != nil {
			t.Fatalf("static batch %d: %v", tc.static, err)
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
			t.Fatalf("static batch %d: finished %d of %d", tc.static, len(res.Finished), n)
		}
		slices.Sort(kinds)
		if !reflect.DeepEqual(kinds, tc.kinds) {
			t.Errorf("static batch %d ran %v iterations, want %v", tc.static, kinds, tc.kinds)
		}
		if tc.static > 0 && widest != tc.static {
			t.Errorf("static batches hold up to %d requests, want %d", widest, tc.static)
		}
	}
	if _, err := NewServing(ServingConfig{Model: "Llama2-7B-Chat", GPU: "A100-80G", StaticBatchSize: -1}); err == nil {
		t.Error("static batch -1 accepted")
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
