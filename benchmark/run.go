package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"github.com/lightllm-go/lightllm/internal/stats"
)

// result is what one run of the benchmark reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner carries one run's settings.
type runner struct {
	w       workloadDef
	cfg     runConfig
	seconds float64   // host seconds the timed replays should fill
	log     io.Writer // progress and sample counts, for people
}

// tally accumulates attempted and failed operations across replays.
type tally struct {
	attempted, failed int
	why               []string
}

func (t *tally) add(rp *replay) {
	t.attempted += rp.sent
	t.failed += rp.failed
	t.why = append(t.why, rp.why...)
}

// diverged counts every request of a replay as failed: its report differs
// from the reference on a workload where a seed fixes every outcome.
func (t *tally) diverged(rp *replay, what string) {
	t.failed += rp.sent - rp.failed
	t.why = append(t.why, what)
}

// endToEndRun is one untraced run. Set-up is input generation, construction
// and one full warm-up replay, whose report is the correctness reference;
// then the identical regenerated input is replayed on freshly built objects
// as many times as fit in r.seconds. Throughput is taken from the fastest
// replay: the program's work is fixed, the host only ever adds time to it.
func (r *runner) endToEndRun() (*result, error) {
	begin := time.Now()
	ref, err := r.w.run(r.cfg, nil)
	if err != nil {
		return nil, err
	}
	var tl tally
	tl.add(ref)
	setup := time.Since(begin).Seconds()
	fmt.Fprintf(r.log, "warm-up replay: %d requests in %.3f s host (build %.4f s)\n", ref.sent, ref.serveS, ref.buildS)

	replays := int(math.Round(r.seconds / (ref.buildS + ref.serveS)))
	if replays < 1 {
		replays = 1
	}
	var walls []float64
	var mallocs, bytes uint64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < replays; i++ {
		runtime.GC() // start every timed replay from a collected heap
		runtime.ReadMemStats(&ms0)
		rp, err := r.w.run(r.cfg, nil)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		walls = append(walls, rp.buildS+rp.serveS)
		tl.add(rp)
		if r.w.deterministic && rp.report != ref.report {
			tl.diverged(rp, fmt.Sprintf("timed replay %d: report diverges from the warm-up replay's", i+1))
		}
		fmt.Fprintf(r.log, "timed replay %d: %.3f s host\n", i+1, rp.buildS+rp.serveS)
	}
	wall := stats.Min(walls)
	timedRequests := float64(replays) * float64(ref.sent)
	vals := map[string]float64{
		"setup_s":                    setup,
		"requests_per_s":             float64(ref.sent) / wall,
		"peak_rss_mb":                peakRSSMB(),
		"allocs_per_request":         float64(mallocs) / timedRequests,
		"alloc_kb_per_request":       float64(bytes) / 1e3 / timedRequests,
		"goodput_tok_s":              ref.sim.GoodputTokS,
		"sla_attainment":             ref.sim.SLAAttainment,
		"ttft_p99_s":                 ref.sim.TTFTP99,
		"prefill_tokens_per_request": ref.sim.PrefillPerReq,
	}
	fmt.Fprintf(r.log, "requests sent %d, ok %d, failed %d per replay; TTFT and MTPOT percentiles over %d served; %d met both limits\n",
		ref.sent, ref.sent-ref.failed, ref.failed, ref.sim.Served, ref.sim.MetBoth)
	return r.assemble(endToEnd, vals, &tl), nil
}

// tracedRun yields the per-layer metrics: an untraced reference replay, the
// traced replay — which must decide exactly as the reference did — and the
// workload's extra replays.
func (r *runner) tracedRun(spansPath string) (*result, error) {
	cpu0 := cpuSeconds()
	ref, err := r.w.run(r.cfg, nil)
	if err != nil {
		return nil, err
	}
	var tl tally
	tl.add(ref)

	tr := newTracer()
	runtime.GC()
	rp, err := r.w.run(r.cfg, tr)
	if err != nil {
		return nil, err
	}
	tl.add(rp)
	if r.w.deterministic && rp.report != ref.report {
		tl.diverged(rp, "traced replay: report diverges from the untraced replay's; the tracer is not a strict observer")
	}
	layers := rp.layers
	layers["core.evicted_share"] = rp.sim.EvictedShare
	layers["engine.ttft_sim_s_p50"] = rp.sim.TTFTP50
	layers["engine.mtpot_sim_s_p99"] = rp.sim.MTPOTP99
	layers["obs.trace_overhead_share"] = (rp.serveS - ref.serveS) / ref.serveS

	if r.w.extra != nil {
		if err := r.w.extra(r.cfg, ref, layers, &tl); err != nil {
			return nil, err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layers["process.cpu_s_per_kreq"] = 1000 * (cpuSeconds() - cpu0) / float64(tl.attempted)
	layers["process.gc_cycles"] = float64(ms.NumGC)
	layers["process.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	layers["process.heap_peak_mb"] = float64(ms.HeapSys) / 1e6

	if spansPath != "" {
		if err := writeTrace(spansPath, tr, layers); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	fmt.Fprintf(r.log, "traced replay: %d requests in %.3f s host against %.3f s untraced; %d spans kept\n",
		rp.sent, rp.serveS, ref.serveS, len(tr.spans))
	return r.assemble(perLayer, layers, &tl), nil
}

// assemble turns measured values into the reported result, one entry per
// declared metric, zero where the workload bypasses the layer.
func (r *runner) assemble(defs []metricDef, vals map[string]float64, tl *tally) *result {
	res := &result{
		Correct:   tl.failed == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		fmt.Fprintf(r.log, "%-34s %16.6g %s\n", d.name, vals[d.name], d.unit)
	}
	for i, why := range tl.why {
		if i == 8 {
			break
		}
		fmt.Fprintln(r.log, "FAILED:", why)
	}
	return res
}
