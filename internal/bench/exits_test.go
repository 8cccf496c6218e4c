package bench

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// hiddenRefuser embeds a scheduler and so hides its RefusesAgain: the engine
// sends every round to Admit.
type hiddenRefuser struct{ core.Scheduler }

// kneeExits serves Fig. 7's knee at small scale — one Llama2-7B/A100-80G
// engine under Past-Future (5% reserved, sampling) with a warm 500-sample
// window, 50 closed-loop ShareGPT-o1 clients that abandon a request queued
// past the TTFT limit, 600 simulated seconds of submissions — and returns the
// scheduler's rounds by exit and the number of requests that finished.
func kneeExits(t *testing.T, seed uint64, hide bool) (core.Exits, int) {
	gen := workload.ShareGPTO1
	hr := rng.New(seed + 99)
	hist := make([]int, 500)
	for i := range hist {
		_, hist[i] = gen.Sample(hr)
	}
	pf := core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(seed)})
	var sched core.Scheduler = pf
	if hide {
		sched = hiddenRefuser{pf}
	}
	eng, err := engine.New(engine.Config{
		Perf:         perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)}),
		Scheduler:    sched,
		QueueTimeout: metrics.SLASmall.TTFT,
		SeedHistory:  hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	workload.NewClosedLoop(eng, gen, rng.New(seed+7), 50, 8192, 0, 600)
	for eng.Step() {
	}
	return pf.Exits(), len(eng.Snapshot().Finished)
}

// TestKneeRoundExitsPinned pins how the knee's admission rounds end, exactly:
// a host-free count of the work they do. Bare, the engine asks RefusesAgain
// before building a View, and 1 715 repeated refusals end there; the 34 that
// come on the per-token path, where the engine builds a View anyway, end in
// Admit's own repeatRefusal. Behind a decorator that hides RefusesAgain all
// 1 749 end inside Admit — the count Admit settled before the engine could
// ask — and every other count is the same.
func TestKneeRoundExitsPinned(t *testing.T) {
	got, finished := kneeExits(t, 1, false)
	want := core.Exits{RepeatAsked: 1715, Repeat: 34, RefusedUndrawn: 83, AdmittedUndrawn: 0, PricedAdmit: 277, PricedRefuse: 145}
	if got != want || finished != 353 {
		t.Fatalf("rounds by exit %+v with %d finished, want %+v with 353", got, finished, want)
	}
	hidden, _ := kneeExits(t, 1, true)
	want.RepeatAsked, want.Repeat = 0, 1749
	if hidden != want {
		t.Fatalf("RefusesAgain hidden: rounds by exit %+v, want %+v", hidden, want)
	}
}
