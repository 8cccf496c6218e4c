package bench

import (
	"math"
	"testing"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// TestMStarErrorFig7: on the Fig. 7 setting at small scale — Llama2-7B on
// one A100-80G, warm ShareGPT-o1 history, 40 closed-loop clients — the
// Past-Future scheduler's predicted M* is held against the true one in some
// admission rounds, and the error it reports is a finite share.
func TestMStarErrorFig7(t *testing.T) {
	const maxNew, seed, span = 8192, 3, 600.0
	eng := engine.MustNew(engine.Config{
		Perf:         perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)}),
		Scheduler:    pfMaker(0.05)(seed),
		QueueTimeout: metrics.SLASmall.TTFT,
		SeedHistory:  historySample(workload.ShareGPTO1, seed+99, 500, maxNew),
	})
	workload.NewClosedLoop(eng, workload.ShareGPTO1, rng.New(seed+7), 40, maxNew, 0, span)
	res := eng.RunUntil(span)
	if res.MStarRounds == 0 {
		t.Fatal("no admission round compared the predicted M* with the true one")
	}
	for name, v := range map[string]float64{
		"mean": res.MStarRelErrMean, "max": res.MStarRelErrMax, "under-share": res.MStarUnderShare,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("M* error %s = %v over %d rounds", name, v, res.MStarRounds)
		}
	}
	if res.MStarUnderShare > 1 || res.MStarRelErrMean > res.MStarRelErrMax {
		t.Fatalf("M* error out of shape: mean %v max %v under-share %v",
			res.MStarRelErrMean, res.MStarRelErrMax, res.MStarUnderShare)
	}
	t.Logf("%d rounds: mean |err| %.3f, max %.3f, under-predicted %.1f%%",
		res.MStarRounds, res.MStarRelErrMean, res.MStarRelErrMax, 100*res.MStarUnderShare)
}
