package frameworks

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

func TestAllPresetsBuildEngines(t *testing.T) {
	cluster := hw.NewCluster(hw.A100_80G, 1)
	for _, p := range All() {
		e, err := p.NewEngineOpts(model.Llama2_7B, cluster, 1, DeployOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if e == nil {
			t.Fatalf("%s: nil engine", p.Name)
		}
	}
}

func TestPresetSchedulerKinds(t *testing.T) {
	r := rng.New(1)
	s, err := LightLLM.NewScheduler(r)
	if err != nil || s.Name() != "past-future(reserved=3%)" {
		t.Fatalf("LightLLM scheduler: %v %q", err, s.Name())
	}
	s, err = VLLM.NewScheduler(r)
	if err != nil || s.Name() != "aggressive(watermark=97%)" {
		t.Fatalf("vLLM scheduler: %v %q", err, s.Name())
	}
	s, err = TGI.NewScheduler(r)
	if err != nil || s.Name() != "conservative" {
		t.Fatalf("TGI scheduler: %v %q", err, s.Name())
	}
}

func TestUnknownKindErrors(t *testing.T) {
	p := Preset{Name: "bad", Kind: SchedulerKind(99)}
	if _, err := p.NewScheduler(rng.New(1)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestMIIUsesSplitfuse(t *testing.T) {
	if DeepSpeedMII.Strategy != engine.SplitFuse {
		t.Fatal("DeepSpeed-MII must use splitfuse")
	}
	if VLLM.BlockSize != 16 {
		t.Fatal("vLLM must use 16-token paging blocks")
	}
	if LightLLM.BlockSize != 1 {
		t.Fatal("LightLLM must use token-granular allocation")
	}
	if TensorRTLLM.Speedup <= 1.0 {
		t.Fatal("TensorRT-LLM must have a kernel speedup")
	}
}

func TestPresetEnginesServeWork(t *testing.T) {
	cluster := hw.NewCluster(hw.A100_80G, 1)
	for _, p := range All() {
		e, err := p.NewEngineOpts(model.Llama2_7B, cluster, 2, DeployOptions{})
		if err != nil {
			t.Fatal(err)
		}
		e.SubmitAll(workload.Build(workload.ShareGPT, rng.New(3), 20, 1, 512))
		res := e.Run()
		if len(res.Finished) != 20 {
			t.Errorf("%s finished %d of 20", p.Name, len(res.Finished))
		}
	}
}

func TestDeployOptionsPropagate(t *testing.T) {
	cluster := hw.NewCluster(hw.A100_80G, 1)
	e, err := LightLLM.NewEngineOpts(model.Llama2_7B, cluster, 1, DeployOptions{
		QueueTimeout: 5,
		SeedHistory:  []int{10, 20, 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.History().Len() != 3 {
		t.Fatalf("seed history not applied: %d", e.History().Len())
	}
	// Queue timeout: a request that can never be admitted within 5s is
	// dropped rather than failed... use an admissible-but-queued scenario:
	// submit one huge batch so later requests queue past the timeout.
	var dropped int
	e.AddDropHook(func(now float64, r *request.Request) { dropped++ })
	e.SubmitAll(workload.Build(workload.Distribution2, rng.New(4), 60, 1, 5120))
	res := e.Run()
	if dropped == 0 || len(res.TimedOut) == 0 {
		t.Fatal("queue timeout produced no drops despite deep queue")
	}
}

func TestFrameworkThroughputOrdering(t *testing.T) {
	// Under light load with no memory pressure, TensorRT-LLM's faster
	// kernels give the highest raw throughput; TGI's slower kernels the
	// lowest among prefill-priority frameworks.
	cluster := hw.NewCluster(hw.A100_80G, 1)
	tp := func(p Preset) float64 {
		e, err := p.NewEngineOpts(model.Llama2_7B, cluster, 5, DeployOptions{})
		if err != nil {
			t.Fatal(err)
		}
		e.SubmitAll(workload.Build(workload.ShareGPT, rng.New(6), 40, 1, 512))
		return e.Run().Throughput()
	}
	trt := tp(TensorRTLLM)
	tgi := tp(TGI)
	if trt <= tgi {
		t.Fatalf("TensorRT-LLM %v not above TGI %v under light load", trt, tgi)
	}
}
