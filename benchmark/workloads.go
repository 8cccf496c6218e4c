package main

import (
	"fmt"
	"time"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// runConfig sizes and seeds one replay.
type runConfig struct {
	seed uint64
	// scale is the workload's size relative to the benchmark's full size;
	// the package test runs at 0.01.
	scale float64
	// workers selects the cluster's simulation core (replay-day only).
	workers int
}

// replay is what one replay of a workload hands back.
type replay struct {
	sent   int     // requests sent
	buildS float64 // host seconds generating inputs and constructing objects
	serveS float64 // host seconds serving them
	sim    simMetrics
	// report is the canonical text of everything the simulation decided;
	// on the deterministic workloads every replay of one seed must print
	// the same text.
	report string
	// failed counts operations without exactly one terminal outcome, or with
	// a wrong reply; why names the first few.
	failed int
	why    []string
	// layers holds the per-layer figures the program's public counters
	// supply; a traced run adds the tracer's.
	layers map[string]float64
	// busySpan is the simulated time the engines were provisioned for: the
	// run's span for one engine, replica-seconds for a fleet.
	busySpan float64
}

func (rp *replay) fail(n int, format string, args ...interface{}) {
	if n <= 0 {
		return
	}
	rp.failed += n
	if len(rp.why) < 8 {
		rp.why = append(rp.why, fmt.Sprintf(format, args...))
	}
}

// workloadFunc builds fresh objects from the seed and replays the workload
// once, traced when tr is non-nil.
type workloadFunc func(cfg runConfig, tr *tracer) (*replay, error)

// extraFunc runs a workload's additional traced-run replays, filling their
// per-layer figures into layers and their operations into tl. ref is the
// run's untraced reference replay.
type extraFunc func(cfg runConfig, ref *replay, layers map[string]float64, tl *tally) error

// A workload is one set of inputs the benchmark runs.
type workloadDef struct {
	name string
	why  string
	// deterministic: a seed fixes every simulated outcome, so every replay
	// must print the same report.
	deterministic bool
	run           workloadFunc
	extra         extraFunc // nil when the traced run needs no extra replays
}

var workloads = []workloadDef{
	{name: "engine-closed", deterministic: true, run: engineClosed,
		why: "KV-bound long outputs at the knee: core admission, dist sampling, kv.Pool and the engine step do all the work; cluster, link, prefix cache and server are bypassed"},
	{name: "replay-day", deterministic: true, run: replayDay, extra: dayExtras,
		why: "short outputs over a 96-replica fleet: the time is in the cluster event heap and routing probes; prefix cache, chunking, link and faults stay off"},
	{name: "storm-product", deterministic: true, run: stormProduct,
		why: "every feature at once: disaggregated pools over a limited link, mixed GPUs, planner, admission with shedding, faults with recovery, prefix cache, chunked prefill, multi-turn and long-context traffic"},
	{name: "serve-http", run: serveHTTP, extra: httpExtras,
		why: "the live path through server: JSON, lock hand-off to the engine driver, per-token channel, streaming beside non-streaming replies over loopback"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// a100 is the paper's single-GPU deployment of Llama2-7B.
func a100() *perf.Model {
	return perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
}

// pastFuture builds the paper's scheduler with 5% reserved memory, decorated
// with the tracer's clock when tracing.
func pastFuture(seed uint64, tr *tracer) core.Scheduler {
	return tr.wrap(core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(seed)}))
}

// scaled sizes a count by the run's scale, never below min.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}

// engineClosed is the paper's Fig. 7 setting: one Llama2-7B/A100-80G engine
// under Past-Future with a warm 500-sample history, clients that abandon a
// request queued past the TTFT limit, and a closed loop of 50 clients
// drawing ShareGPT-o1 lengths (outputs up to 8192 tokens). The clients stop
// submitting at the simulated deadline and the engine drains, so every
// request ends.
func engineClosed(cfg runConfig, tr *tracer) (*replay, error) {
	const (
		clients = 50
		maxNew  = 8192
		simSpan = 58_000.0 // simulated seconds of client activity at scale 1
	)
	t0 := time.Now()
	gen := workload.ShareGPTO1
	hr := rng.New(cfg.seed + 99)
	hist := make([]int, 500)
	for i := range hist {
		_, hist[i] = gen.Sample(hr) // ShareGPT-o1 draws no output above maxNew
	}
	eng, err := engine.New(engine.Config{
		Perf:         a100(),
		Scheduler:    pastFuture(cfg.seed, tr),
		QueueTimeout: sla.TTFT,
		SeedHistory:  hist,
	})
	if err != nil {
		return nil, err
	}
	eng.SetRecorder(tr.recorder(), 0, 0)
	span := simSpan * cfg.scale
	if span < 600 {
		span = 600
	}
	cl := workload.NewClosedLoop(eng, gen, rng.New(cfg.seed+7), clients, maxNew, 0, span)
	rp := &replay{buildS: time.Since(t0).Seconds()}

	t1 := time.Now()
	if tr != nil {
		tr.begin("engine.run")
		for tr.step(eng.Step) {
		}
	} else {
		for eng.Step() {
		}
	}
	rp.serveS = time.Since(t1).Seconds()

	res := eng.Snapshot()
	out := &outcomes{sent: cl.Submitted(), firstID: 1, simSeconds: res.Duration}
	out.addEngine(res)
	finish(rp, out, fmt.Sprintf("%s %+v", res, scalars(res)))
	rp.busySpan = res.Duration
	engineLayers(rp.layers, out.sent, []*engine.Result{res}, []*engine.Engine{eng})
	if tr != nil {
		tracerLayers(rp.layers, tr, rp)
	}
	return rp, nil
}

// scalars strips a result's request lists, leaving its counters.
func scalars(res *engine.Result) engine.Result {
	c := *res
	c.Finished, c.Failed, c.TimedOut, c.HandedOff = nil, nil, nil, nil
	return c
}

// finish checks conservation, derives the simulated metrics and assembles
// the replay's report text.
func finish(rp *replay, out *outcomes, programReport string) {
	rp.sent = out.sent
	missing, duplicated, unknown := conserve(out.sent, out.firstID, out.records())
	rp.fail(missing, "%d requests ended with no terminal outcome", missing)
	rp.fail(duplicated, "%d requests ended with two terminal outcomes", duplicated)
	rp.fail(unknown, "%d terminal records name a request that was never sent", unknown)
	rp.sim = summarize(out)
	rp.report = fmt.Sprintf("%+v\n%s", rp.sim, programReport)
	rp.layers = map[string]float64{}
}

// dayPhases is the diurnal rate curve of cmd/fleetsim/scale.go as shares of
// the peak rate: night trough, morning ramp, midday peak, evening shoulder.
var dayPhases = []float64{0.30, 0.45, 0.70, 1.00, 0.95, 0.75, 0.50, 0.35}

// dayStream regenerates the replay-day arrival stream (cmd/fleetsim's
// dayStream): phase durations are solved so the curve emits exactly n
// requests, the mixture drifts from chat-dominated mornings through
// multimodal midday to reasoning-heavy evenings, and outputs are capped at
// 150 tokens. It returns the stream and the length of one phase.
func dayStream(seed uint64, n int, peak float64) (*workload.Stream, float64) {
	sum := 0.0
	for _, f := range dayPhases {
		sum += f
	}
	phaseDur := float64(n) / (peak * sum)
	phases := make([]workload.RatePhase, len(dayPhases))
	for i, f := range dayPhases {
		phases[i] = workload.RatePhase{Rate: f * peak, Duration: phaseDur}
	}
	gen := &workload.Concat{
		Label: "day-trace",
		Parts: []workload.Generator{
			workload.Mixed{Label: "morning", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256)}, Weights: []float64{4, 1}},
			workload.Mixed{Label: "midday", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256), workload.ShareGPTO1}, Weights: []float64{2, 2, 1}},
			workload.Mixed{Label: "evening", Parts: []workload.Generator{workload.ShareGPT, workload.ShareGPTO1}, Weights: []float64{2, 3}},
		},
		PerPart: n / 3,
	}
	return workload.NewStream(workload.StreamConfig{
		Gen:      gen,
		Lengths:  rng.New(seed + 1000),
		Arrivals: rng.New(seed + 2000),
		Phases:   phases,
		N:        n,
		FirstID:  1,
		MaxNew:   150,
	}), phaseDur
}

// replayDay streams the diurnal day trace, open loop, through a fixed fleet
// of 96 Past-Future replicas with 10 000 KV tokens each under FutureHeadroom
// routing — the ROADMAP's headline replay.
func replayDay(cfg runConfig, tr *tracer) (*replay, error) {
	const (
		replicas = 96
		capacity = 10_000
		peak     = 1000.0 // req/s at the midday phase
	)
	t0 := time.Now()
	n := scaled(125_000, cfg.scale, 600)
	pm := a100()
	engines := make([]*engine.Engine, replicas)
	for i := range engines {
		eng, err := engine.New(engine.Config{
			Perf:             pm,
			Scheduler:        pastFuture(cfg.seed+uint64(i), tr),
			CapacityOverride: capacity,
		})
		if err != nil {
			return nil, err
		}
		engines[i] = eng
	}
	clu, err := cluster.NewCluster(cluster.ClusterConfig{
		Pools:    []cluster.Config{{Replicas: engines, Policy: cluster.FutureHeadroom}},
		Workers:  cfg.workers,
		Recorder: tr.recorder(),
	})
	if err != nil {
		return nil, err
	}
	stream, phaseDur := dayStream(cfg.seed, n, peak)
	rp := &replay{buildS: time.Since(t0).Seconds()}
	out := serveStream(rp, clu, stream, engines, tr)
	_, rp.layers["cluster.batch_width_mean"] = clu.BatchStats()
	rp.layers["cluster.max_sla_phase_rate_req_s"] = maxSLAPhaseRate(out, phaseDur, peak)
	return rp, nil
}

// serveStream times one ServeStream call over the whole stream, traced when
// tr is non-nil, and fills the replay from what the cluster reports.
func serveStream(rp *replay, clu *cluster.Cluster, stream *workload.Stream, engines []*engine.Engine, tr *tracer) *outcomes {
	next := stream.Next
	if tr != nil {
		next = tr.wrapNext(next)
		tr.begin("cluster.serve")
	}
	t := time.Now()
	results := clu.ServeStream(next, 1e9)
	rp.serveS = time.Since(t).Seconds()

	rep := clu.Report(results, sla)
	out := &outcomes{sent: stream.Produced(), firstID: 1, simSeconds: rep.Duration, shed: clu.ShedRequests()}
	for _, res := range results {
		out.addEngine(res)
	}
	finish(rp, out, fmt.Sprintf("%+v", rep))
	rp.busySpan = rep.ReplicaSeconds
	engineLayers(rp.layers, out.sent, results, engines)
	clusterLayers(rp.layers, rep, out.sent, clu.EventsProcessed())
	if tr != nil {
		tracerLayers(rp.layers, tr, rp)
		// The stream, routing and admission are all inside the one call.
		next, route, admit := tr.seconds(layerNext), tr.seconds(layerRoute), tr.seconds(layerAdmit)
		rp.layers["cluster.serve_s"] = rp.serveS
		rp.layers["cluster.route_s"] = route
		rp.layers["cluster.route_calls"] = float64(tr.routeCalls)
		rp.layers["cluster.other_s"] = rp.serveS - next - route - admit
		rp.layers["cluster.held"] = float64(tr.held)
		rp.layers["cluster.hold_wait_sim_s_p99"] = pct(tr.holdWaits, 0.99)
	}
	return out
}

// dayExtras replays the day once each on the batched core at one and two
// workers. Their reports must equal the sequential core's; their speed is the
// evidence for choosing between the cores.
func dayExtras(cfg runConfig, ref *replay, layers map[string]float64, tl *tally) error {
	for _, workers := range []int{1, 2} {
		cfg.workers = workers
		rp, err := replayDay(cfg, nil)
		if err != nil {
			return err
		}
		tl.add(rp)
		if rp.report != ref.report {
			tl.diverged(rp, fmt.Sprintf("batched core at %d workers: report diverges from the sequential core's", workers))
		}
		layers[fmt.Sprintf("cluster.batched%d_requests_per_s", workers)] = float64(rp.sent) / (rp.buildS + rp.serveS)
		layers["cluster.batch_width_mean"] = rp.layers["cluster.batch_width_mean"]
	}
	return nil
}

// maxSLAPhaseRate returns the highest of the day's phase rates whose own
// requests reach 0.9 attainment, 0 if none does.
func maxSLAPhaseRate(out *outcomes, phaseDur, peak float64) float64 {
	sent := make([]int, len(dayPhases))
	met := make([]int, len(dayPhases))
	phaseOf := func(r *request.Request) int {
		i := int(r.ArrivalTime / phaseDur)
		if i >= len(dayPhases) {
			i = len(dayPhases) - 1
		}
		return i
	}
	out.each(func(r *request.Request) { sent[phaseOf(r)]++ })
	for _, r := range out.finished {
		if sla.Met(r) {
			met[phaseOf(r)]++
		}
	}
	best := 0.0
	for i, f := range dayPhases {
		if sent[i] > 0 && float64(met[i]) >= 0.9*float64(sent[i]) && f*peak > best {
			best = f * peak
		}
	}
	return best
}
