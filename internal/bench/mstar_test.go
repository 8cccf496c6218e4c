package bench

import (
	"math"
	"reflect"
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

// TestMStarErrorFig7: on the Fig. 7 setting at small scale — Llama2-7B on
// one A100-80G, warm ShareGPT-o1 history, 40 closed-loop clients — the
// Past-Future scheduler's predicted M* is held against the true one in some
// admission rounds, and the error the observer reports is a finite share.
func TestMStarErrorFig7(t *testing.T) {
	const maxNew, seed, span = 8192, 3, 600.0
	eng := engine.MustNew(engine.Config{
		Perf:         perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)}),
		Scheduler:    pfMaker(0.05)(seed),
		QueueTimeout: metrics.SLASmall.TTFT,
		SeedHistory:  historySample(workload.ShareGPTO1, seed+99, 500, maxNew),
	})
	truth := core.NewMStarObserver(nil)
	eng.AddAdmitHook(truth.Observe)
	workload.NewClosedLoop(eng, workload.ShareGPTO1, rng.New(seed+7), 40, maxNew, 0, span)
	eng.RunUntil(span)
	res := truth.Scheduler()
	if res.Rounds == 0 {
		t.Fatal("no admission round compared the predicted M* with the true one")
	}
	for name, v := range map[string]float64{
		"mean": res.RelErrMean, "max": res.RelErrMax, "under-share": res.UnderShare,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("M* error %s = %v over %d rounds", name, v, res.Rounds)
		}
	}
	if res.UnderShare > 1 || res.RelErrMean > res.RelErrMax {
		t.Fatalf("M* error out of shape: mean %v max %v under-share %v",
			res.RelErrMean, res.RelErrMax, res.UnderShare)
	}
	t.Logf("%d rounds: mean |err| %.3f, max %.3f, under-predicted %.1f%%; signed (true−pred)/pred p50 %+.3f p95 %+.3f p99 %+.3f",
		res.Rounds, res.RelErrMean, res.RelErrMax, 100*res.UnderShare, res.P50, res.P95, res.P99)
}

// TestWinnersCurse: on Table 1's setting — Llama-2-7B on one A100-80G, batch
// mode, 1000 requests per distribution — Past-Future at a 5% reserve admits
// only on rounds whose draw of the batch fitted, so its predicted M* falls
// short of the true one far more often than a control draw of the same
// batches does. The control follows the same window and rules from its own
// stream, which makes it a fair coin: under-predicting about half the time.
func TestWinnersCurse(t *testing.T) {
	if testing.Short() {
		t.Skip("six 1000-request batch runs")
	}
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	for _, ds := range table1Datasets() {
		for seed := uint64(1); seed <= 2; seed++ {
			eng := engine.MustNew(engine.Config{Perf: pm, Scheduler: pfMaker(0.05)(seed)})
			truth := core.NewMStarObserver(core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(seed).Split(),
			}))
			eng.AddAdmitHook(truth.Observe)
			eng.SubmitAll(workload.Build(ds, rng.New(seed), 1000, 1, ds.OutHi))
			eng.Run()
			s, c := truth.Scheduler(), truth.Control()
			t.Logf("%s seed %d, %d rounds: under-predicted: scheduler %.1f%%, control %.1f%%; "+
				"(true−pred)/pred p50/p95/p99: scheduler %+.3f/%+.3f/%+.3f, control %+.3f/%+.3f/%+.3f",
				ds.Name(), seed, s.Rounds, 100*s.UnderShare, 100*c.UnderShare,
				s.P50, s.P95, s.P99, c.P50, c.P95, c.P99)
			if s.Rounds < 100 || c.Rounds != s.Rounds {
				t.Fatalf("%s seed %d: %d scheduler rounds, %d control rounds", ds.Name(), seed, s.Rounds, c.Rounds)
			}
			if c.UnderShare < 0.40 || c.UnderShare > 0.60 {
				t.Errorf("%s seed %d: control draw under-predicts %.3f of rounds, want [0.40, 0.60]",
					ds.Name(), seed, c.UnderShare)
			}
			if s.UnderShare < c.UnderShare+0.08 {
				t.Errorf("%s seed %d: scheduler under-predicts %.3f of rounds, control %.3f; want at least 0.08 more",
					ds.Name(), seed, s.UnderShare, c.UnderShare)
			}
		}
	}
}

// TestMStarObserverIsStrict: attaching the observer, control draw included,
// changes nothing the engine does. Fig. 1's regimes under all three
// scheduler families and a chunked Fig. 7 closed loop each run twice, with
// and without it, and must give identical Results and per-request timings.
func TestMStarObserverIsStrict(t *testing.T) {
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	type run func(observe bool) *engine.Result
	attach := func(eng *engine.Engine, observe bool, seed uint64) {
		if observe {
			control := core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(seed + 500)})
			eng.AddAdmitHook(core.NewMStarObserver(control).Observe)
		}
	}
	runs := map[string]run{}
	for _, reg := range []workload.Uniform{workload.Distribution1, workload.Distribution3} {
		for _, sched := range []struct {
			name string
			make func(uint64) core.Scheduler
		}{{"conservative", coMaker(1.0)}, {"aggressive", agMaker(0.99)}, {"past-future", pfMaker(0.05)}} {
			runs[reg.Name()+"/"+sched.name] = func(observe bool) *engine.Result {
				eng := engine.MustNew(engine.Config{Perf: pm, Scheduler: sched.make(1)})
				attach(eng, observe, 1)
				eng.SubmitAll(workload.Build(reg, rng.New(1), 120, 1, reg.OutHi))
				return eng.Run()
			}
		}
	}
	runs["fig7-chunked"] = func(observe bool) *engine.Result {
		const maxNew, seed, span = 8192, 3, 200.0
		eng := engine.MustNew(SplitFuse(engine.Config{
			Perf:         pm,
			Scheduler:    pfMaker(0.05)(seed),
			QueueTimeout: metrics.SLASmall.TTFT,
			SeedHistory:  historySample(workload.ShareGPTO1, seed+99, 500, maxNew),
		}))
		attach(eng, observe, seed)
		workload.NewClosedLoop(eng, workload.ShareGPTO1, rng.New(seed+7), 40, maxNew, 0, span)
		return eng.RunUntil(span)
	}
	for name, run := range runs {
		bare, observed := run(false), run(true)
		if len(bare.Finished) == 0 || len(bare.Finished) != len(observed.Finished) {
			t.Fatalf("%s: %d finished bare, %d observed", name, len(bare.Finished), len(observed.Finished))
		}
		for i, a := range bare.Finished {
			b := observed.Finished[i]
			if a.ID != b.ID || a.FirstTokenAt != b.FirstTokenAt || a.EndedAt != b.EndedAt ||
				a.MaxGap != b.MaxGap || a.PredictedLen != b.PredictedLen {
				t.Fatalf("%s: finished request %d differs: bare %+v, observed %+v", name, i, *a, *b)
			}
		}
		if !reflect.DeepEqual(bare, observed) {
			t.Fatalf("%s: Results differ:\nbare     %+v\nobserved %+v", name, *bare, *observed)
		}
	}
}
