// Command fleetsim drives the event-driven fleet simulator: it synthesizes
// a (by default bursty) workload, serves it through a multi-replica fleet
// under a chosen routing policy and autoscaling mode, and reports
// fleet-level SLA attainment and provisioning cost (replica-seconds).
//
//	fleetsim                          # single run, predictive planner
//	fleetsim -scaler reactive         # threshold high/low-water baseline
//	fleetsim -compare -json out.json  # reactive vs predictive comparison
//	fleetsim -csv plan.csv            # planner evaluation trace
//	fleetsim -disagg                  # disaggregated prefill/decode pools
//	fleetsim -disagg -compare         # reactive vs predictive vs disaggregated
//	fleetsim -overload                # 2× overload ramp: admission control on/off
//	fleetsim -overload -dynamic-slack # A/B: static vs observed-wait admission reserve
//	fleetsim -hetero                  # mixed-GPU fleet: cost-aware vs premium-only
//	fleetsim -faults                  # crash storm: no faults vs no recovery vs recovery
//	fleetsim -faults -trace t.json -spans s.csv -timeseries ts.csv
//	fleetsim -multiturn               # prefix-share sweep under cache-affinity routing
//	fleetsim -multiturn -compare      # same sweep, affinity vs cache-blind at each point
//
// The comparison mode is the paper-§7 demo the bench records in
// BENCH_fleet.json: on a bursty workload, predictive scaling (EWMA/Holt
// forecasts + TTFT/TPOT interpolation) meets the TTFT target with fewer
// replica-seconds than the reactive baseline. With -disagg the same
// workload additionally runs through a Dynamo-style disaggregated cluster:
// a prefill-only pool sized by the TTFT interpolation and a decode-only
// pool sized by the TPOT interpolation, joined by a KV-transfer link with
// finite bandwidth and latency.
//
// -overload is the graceful-degradation demo: the ramp peaks at 2× the
// burst rate — beyond what the capped fleet can serve — and the same
// disaggregated cluster runs three ways: route-on-arrival (no admission
// control), a cluster-front admission queue without shedding, and full
// deadline-aware shedding. The shedding mode must keep the p99 TTFT of
// *served* requests inside the SLA and deliver more SLA-met completions
// per second than both no-shed modes, which collapse into blown-deadline
// completions.
//
// -faults is the fault-tolerance demo: a crash storm lands mid-burst on the
// disaggregated cluster — two decode replicas and the prefill replica go
// down for tens of seconds, a batch of KV deliveries is destroyed on the
// wire, and a surviving decode replica degrades to 1.6× service time — and
// the same storm runs three ways: no faults (the ceiling), faults with no
// recovery story (orphans terminally lost, no retries), and full recovery
// (orphans re-admitted under their original deadlines, KV-transfer retries
// with capped backoff, N+1 spare capacity, crash-suppressed scale-in). The
// recovery mode must beat no-recovery on both SLA-met completions per
// second and served p99 TTFT.
//
// -trace/-timeseries/-spans/-requests attach an observability collector
// (internal/obs) to the run and export it: a Chrome/Perfetto trace-event
// JSON for ui.perfetto.dev, an interval rollup time-series CSV, the
// per-request lifecycle span CSV with its exact TTFT decomposition
// (hold + queue + prefill + wire + outage), and the per-request trace
// records with placement filled in from the spans. When several modes run
// (a -compare list or one of the trios), the exports record the *last*
// mode — the full-recovery / full-shedding configuration, which is the
// one worth looking at. The recorder is a strict observer: a traced run
// makes bit-identical decisions to an untraced one (scripts/bench.sh
// checks exactly that), so attaching the exports never changes a report.
//
// -multiturn is the prefix-caching demo: multi-turn chat traffic (shared
// system prompts, growing per-turn histories) swept across the prefix-share
// axis — the probability a session continues past each turn — on a
// fixed-size caching fleet with a host offload tier. Each share point runs
// under cache-affinity routing (warm replicas win ties); with -compare the
// identical workload also runs cache-blind (AffinityWeight 0), isolating
// what routing alone is worth at equal provisioned capacity: the affinity
// arm must beat the blind arm on both served p99 TTFT and total prefill
// tokens computed, with the gap widening as the share rises.
//
// -hetero is the heterogeneous-fleet demo: the same ramp served by a mixed
// fleet (premium A100-80G replicas plus cheaper economy replicas, RTX-4090
// by default) under the cost-aware planner — which fills demand with the
// cheapest flavor whose interpolated latency still meets the SLA — against
// the ramp forced onto the premium flavor alone. The comparison axis is
// CostSeconds: replica-seconds weighted by each flavor's normalized hourly
// price (1.0 = one A100-80G), plus cost per SLA-met completion.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/trace"
	"github.com/lightllm-go/lightllm/internal/workload"
)

type options struct {
	replicas  int
	capacity  int
	policy    cluster.Policy
	scaler    string
	predictor cluster.PredictorKind
	interval  float64
	delay     float64
	min, max  int
	sla       metrics.SLA
	high, low float64
	headroom  float64
	rate      float64
	burst     float64
	phaseSec  float64
	seed      uint64

	// Disaggregated mode: prefill pool size (rest of the replica budget
	// decodes), decode-pool planner headroom, and the KV-transfer link.
	prefill  int
	decodeHR float64
	linkGBps float64
	linkLat  float64

	// Overload mode: ramp peak multiplier and admission slack.
	overloadX float64
	slack     float64

	// Heterogeneous mode: economy GPU flavor and replica count (the
	// premium flavor is the default A100-80G fleet), and the mixed fleet's
	// planner utilization target.
	econGPU  hw.GPU
	econR    int
	heteroHR float64

	// Fault mode: the trio's fleet size (the storm needs headroom above the
	// burst-sized fleet for spare capacity to exist) and the decode-pool
	// spare replicas in the recovery configuration.
	faultR int
	spare  int

	// Multiturn mode: the affinity arm's routing weight and the session
	// workload's arrival rate and span.
	affinityW float64
	mtRate    float64
	mtDur     float64
	mtCap     int

	// Longctx mode: the blended workload's arrival rate and span, the
	// big-KV per-replica capacity, the chunk size, and the long-document
	// class's looser TTFT budget.
	lcRate     float64
	lcDur      float64
	lcCap      int
	lcChunk    int
	lcLongTTFT float64

	// rec is the observability recorder the run attaches (nil for an
	// untraced run — the zero-cost default).
	rec obs.Recorder
}

func main() {
	var (
		replicas  = flag.Int("replicas", 6, "fleet size (autoscaling upper bound)")
		capacity  = flag.Int("capacity", 10_000, "KV capacity override per replica, tokens (0 = model capacity)")
		policyS   = flag.String("policy", "future-headroom", "routing policy: round-robin|least-loaded|future-headroom")
		scaler    = flag.String("scaler", "predictive", "autoscaler: none|reactive|predictive")
		predictor = flag.String("predictor", "holt", "load predictor: constant|ewma|holt")
		interval  = flag.Float64("interval", 10, "autoscaler evaluation interval, seconds")
		delay     = flag.Float64("delay", 5, "replica activation delay, seconds")
		minR      = flag.Int("min", 1, "minimum active replicas")
		ttft      = flag.Float64("ttft", 8, "SLA: time to first token, seconds")
		tpot      = flag.Float64("tpot", 1.5, "SLA: max inter-token gap, seconds")
		high      = flag.Float64("high", 0.85, "reactive high-water load fraction")
		low       = flag.Float64("low", 0.35, "reactive low-water load fraction")
		headroom  = flag.Float64("headroom", 0.8, "planner utilization target")
		rate      = flag.Float64("rate", 3, "baseline arrival rate, req/s")
		burst     = flag.Float64("burst", 22, "burst arrival rate, req/s")
		phaseSec  = flag.Float64("phase", 90, "seconds per workload phase (calm, ramp, burst, calm)")
		seed      = flag.Uint64("seed", 1, "random seed")
		compare   = flag.Bool("compare", false, "run reactive vs predictive on the same workload")
		disagg    = flag.Bool("disagg", false, "serve through disaggregated prefill/decode pools (with -compare: also run the monolithic modes)")
		overload  = flag.Bool("overload", false, "run the overload trio (no admission / admission hold / admission+shed) on a ramp peaking at overload-factor × burst")
		overloadX = flag.Float64("overload-factor", 2, "overload: burst-rate multiplier for the overload ramp")
		slack     = flag.Float64("slack", 1.5, "overload: admission feasibility slack, seconds (reserve for engine-side waits the floor cannot see)")
		faultsRun = flag.Bool("faults", false, "run the fault-injection trio (no faults / crash storm without recovery / crash storm with recovery) on the disaggregated cluster")
		faultR    = flag.Int("fault-replicas", 0, "faults: fleet size for the fault trio (0 = 2×replicas; the storm needs scale-out headroom beyond the burst-sized fleet for N+1 spares to provision)")
		multiturn = flag.Bool("multiturn", false, "run the multi-turn prefix-caching sweep: session traffic at each -shares point served by a caching fleet under cache-affinity routing (with -compare: also cache-blind routing on the identical workload)")
		mtShares  = flag.String("shares", "0,0.25,0.5,0.75", "multiturn: comma-separated prefix-share sweep (per-turn session continuation probability, each in [0,1))")
		affinityW = flag.Float64("affinity", 0.5, "multiturn: cache-affinity routing weight for the affinity arm")
		mtRate    = flag.Float64("mt-rate", 10, "multiturn: session-turn arrival rate, req/s")
		mtDur     = flag.Float64("mt-duration", 240, "multiturn: workload span, seconds")
		mtCap     = flag.Int("mt-capacity", 40_000, "multiturn: per-replica KV capacity override, tokens (the caching fleet needs room for resident prefixes on top of in-flight work)")
		longctx   = flag.Bool("longctx", false, "run the long-context chunked-prefill sweep: chat traffic blended with 32k+ prompts at each -lc-shares point, served with SLO-aware chunked prefill (with -compare: also unchunked and greedy fixed-chunk on the identical workload)")
		lcShares  = flag.String("lc-shares", "0.02,0.05,0.10", "longctx: comma-separated long-prompt request shares, each in [0,1)")
		lcRate    = flag.Float64("lc-rate", 4, "longctx: blended arrival rate, req/s")
		lcDur     = flag.Float64("lc-duration", 240, "longctx: workload span, seconds")
		lcCap     = flag.Int("lc-capacity", 131_072, "longctx: per-replica KV capacity override, tokens (a 64k prompt must fit beside in-flight chat work)")
		lcChunk   = flag.Int("lc-chunk", 512, "longctx: prefill chunk size, tokens (greedy arm's fixed size; slo arm's default when no deadline presses)")
		lcTTFT    = flag.Float64("lc-long-ttft", 20, "longctx: TTFT budget for the long-document class, seconds (the chat class keeps -ttft)")
		hetero    = flag.Bool("hetero", false, "run the heterogeneous-fleet duo on the same ramp: a mixed premium+economy fleet under the cost-aware planner vs the ramp forced onto the premium flavor alone")
		econGPU   = flag.String("econ-gpu", "RTX-4090", "hetero: economy GPU flavor (A100-80G, H800, RTX-4090, A30)")
		econR     = flag.Int("econ", 0, "hetero: economy replicas in the mixed fleet (0 = 2×replicas)")
		heteroHR  = flag.Float64("hetero-headroom", 0, "hetero: global mixed-fleet planner utilization target override (0 = speed-aware per-flavor targets derived from -headroom: the fastest flavor runs at -headroom and slower flavors keep the same absolute slack time, replacing the old uniform 0.65)")
		prefillR  = flag.Int("prefill", 0, "disagg: prefill pool replicas (0 = replicas/4, min 1; the rest decode)")
		decodeHR  = flag.Float64("decode-headroom", 0.7, "disagg: decode pool planner utilization target (decode queueing costs MTPOT; the MTPOT correction loop lets this run tighter than the old 0.6 default)")
		linkGBps  = flag.Float64("link-gbps", 64, "disagg: KV-transfer link bandwidth, GB/s (0 = latency-only)")
		linkLat   = flag.Float64("link-latency", 0.002, "disagg: KV-transfer link latency, seconds")
		scaleRun_ = flag.Bool("scale", false, "run the long-trace replay on a streamed diurnal day trace, as built and as its per-step twin (no coasted decode steps), and require identical reports; -json writes BENCH_scale.json")
		scaleReqs = flag.Int("scale-requests", 1_000_000, "scale: day-trace length, requests")
		scaleReps = flag.Int("scale-replicas", 96, "scale: fleet width for the replay")
		scalePeak = flag.Float64("scale-peak", 1200, "scale: diurnal peak arrival rate, req/s")
		scaleRep  = flag.Int("scale-repeat", 1, "scale: timing repeats per mode (wall-clock is the min; report equality is checked on every repeat)")
		jsonPath  = flag.String("json", "", "write the report(s) as JSON to this file")
		csvPath   = flag.String("csv", "", "write the planner evaluation trace as CSV to this file")
		dynSlack  = flag.Bool("dynamic-slack", false, "overload: append an overload-dynshed mode that adapts the admission reserve from observed engine-side waits (A/B against overload-shed's static -slack)")
		obsTrace  = flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON of the observed run to this file (open at ui.perfetto.dev)")
		obsTS     = flag.String("timeseries", "", "write the interval rollup time series of the observed run as CSV to this file")
		obsSpans  = flag.String("spans", "", "write the per-request lifecycle spans (exact TTFT decomposition) of the observed run as CSV to this file")
		obsReqs   = flag.String("requests", "", "write the observed run's per-request trace records as CSV to this file, placement filled from the spans")
		obsEvery  = flag.Float64("obs-interval", 10, "observability rollup interval, seconds")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *scaleRun_ {
		res := runScale(scaleOptions{
			requests: *scaleReqs, replicas: *scaleReps, capacity: *capacity,
			peak: *scalePeak, repeat: *scaleRep,
			seed: *seed, maxNew: 150,
		})
		if *jsonPath != "" {
			writeScaleJSON(*jsonPath, res)
		}
		return
	}

	pol, err := cluster.ParsePolicy(*policyS)
	if err != nil {
		fatal(err)
	}
	kind, err := cluster.ParsePredictor(*predictor)
	if err != nil {
		fatal(err)
	}
	econ, err := hw.GPUByName(*econGPU)
	if err != nil {
		fatal(err)
	}
	opts := options{
		replicas: *replicas, capacity: *capacity, policy: pol, scaler: *scaler,
		predictor: kind, interval: *interval, delay: *delay,
		min: *minR, max: *replicas,
		sla:  metrics.SLA{TTFT: *ttft, MTPOT: *tpot},
		high: *high, low: *low, headroom: *headroom,
		rate: *rate, burst: *burst, phaseSec: *phaseSec, seed: *seed,
		prefill: *prefillR, decodeHR: *decodeHR, linkGBps: *linkGBps, linkLat: *linkLat,
		overloadX: *overloadX, slack: *slack,
		econGPU: econ, econR: *econR, heteroHR: *heteroHR,
		faultR:    *faultR,
		affinityW: *affinityW, mtRate: *mtRate, mtDur: *mtDur, mtCap: *mtCap,
		lcRate: *lcRate, lcDur: *lcDur, lcCap: *lcCap, lcChunk: *lcChunk, lcLongTTFT: *lcTTFT,
	}
	if opts.econR == 0 {
		opts.econR = 2 * opts.replicas
	}
	if opts.faultR == 0 {
		opts.faultR = 2 * opts.replicas
	}
	if opts.prefill == 0 {
		opts.prefill = opts.replicas / 4
	}
	if opts.prefill < 1 {
		opts.prefill = 1
	}
	if (*disagg || *faultsRun) && opts.prefill >= opts.replicas {
		fatal(fmt.Errorf("prefill pool (%d) must leave at least one decode replica of %d", opts.prefill, opts.replicas))
	}
	if *faultsRun && opts.faultR-opts.faultR/4 < 3 {
		fatal(fmt.Errorf("fault storm needs at least 3 decode replicas, got %d", opts.faultR-opts.faultR/4))
	}

	var modes []string
	switch {
	case *compare && *disagg:
		modes = []string{"reactive", "predictive", "disaggregated"}
	case *compare && !*multiturn && !*longctx:
		modes = []string{"reactive", "predictive"}
	case *disagg:
		modes = []string{"disaggregated"}
	case *overload:
		// -overload alone runs just the trio.
	case *hetero:
		// -hetero alone runs just the duo.
	case *faultsRun:
		// -faults alone runs just the fault trio.
	case *multiturn:
		// -multiturn alone runs just the share sweep.
	case *longctx:
		// -longctx alone runs just the chunking sweep.
	default:
		modes = []string{opts.scaler}
	}
	if *dynSlack && !*overload {
		fatal(fmt.Errorf("-dynamic-slack is the overload A/B knob; combine it with -overload"))
	}
	if *overload {
		modes = append(modes, "overload-noshed", "overload-admit", "overload-shed")
		if *dynSlack {
			modes = append(modes, "overload-dynshed")
		}
	}
	if *hetero {
		modes = append(modes, "hetero-cost", "hetero-premium")
	}
	if *faultsRun {
		modes = append(modes, "faults-none", "faults-norecover", "faults-recover")
	}
	if *multiturn {
		modes = append(modes, multiturnModes(parseShares(*mtShares), *compare)...)
	}
	if *longctx {
		modes = append(modes, longctxModes(parseShares(*lcShares), *compare)...)
	}

	// Any observability export attaches one collector to the last mode of
	// the run list (the full-recovery / full-shedding configuration in the
	// trios). Its chatter goes to stderr so a traced run's stdout stays
	// byte-identical to an untraced one — the parity the bench asserts.
	var col *obs.Collector
	if *obsTrace != "" || *obsTS != "" || *obsSpans != "" || *obsReqs != "" {
		col = obs.NewCollector(*obsEvery)
		fmt.Fprintf(os.Stderr, "observability: recording mode %s\n", modes[len(modes)-1])
	}
	var rows []row
	for i, mode := range modes {
		opts.scaler = mode
		opts.rec = nil
		if col != nil && i == len(modes)-1 {
			opts.rec = col
		}
		rows = append(rows, runOne(opts, *csvPath))
	}
	fillPrefillSavings(rows)

	printRows(opts, rows)
	if *jsonPath != "" {
		writeJSON(*jsonPath, opts, rows)
	}
	if col != nil {
		writeObs(col, *obsTrace, *obsTS, *obsSpans, *obsReqs)
	}
}

// writeObs exports the collector's views of the observed run to whichever
// paths were requested.
func writeObs(col *obs.Collector, tracePath, tsPath, spansPath, reqsPath string) {
	write := func(path string, fn func(string) error) {
		if path == "" {
			return
		}
		if err := fn(path); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}
	write(tracePath, col.WritePerfettoFile)
	write(tsPath, col.WriteTimeSeriesCSVFile)
	write(spansPath, col.WriteSpanCSVFile)
	write(reqsPath, func(path string) error { return writeRequestCSV(path, col) })
}

// writeRequestCSV exports one trace.Record per observed request, with the
// placement fields (pool/replica/flavor/migrations) the request alone does
// not carry filled in from the assembled spans.
func writeRequestCSV(path string, col *obs.Collector) error {
	spans := col.Spans()
	recs := make([]trace.Record, 0, len(spans))
	for _, s := range spans {
		rec := trace.FromRequest(s.R)
		rec.Pool, rec.Replica, rec.Flavor = s.Pool, s.Rep, s.Flavor
		rec.Migrations = s.Deliveries
		recs = append(recs, rec)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteCSV(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// row is one fleet run's reported outcome. P99TTFT covers *served* requests
// only (a shed request has no latency); SLAAttainment counts every shed as
// a TTFT violation, so admission control cannot launder attainment.
type row struct {
	Mode           string  `json:"mode"`
	Policy         string  `json:"policy"`
	Finished       int     `json:"finished"`
	TTFTAttainment float64 `json:"ttft_attainment"`
	SLAAttainment  float64 `json:"sla_attainment"`
	MeanTTFT       float64 `json:"mean_ttft_s"`
	P99TTFT        float64 `json:"p99_ttft_s"`
	Goodput        float64 `json:"goodput_tok_s"`
	GoodputReq     float64 `json:"goodput_req_s"` // SLA-met completions per second
	ReplicaSeconds float64 `json:"replica_seconds"`
	// CostSeconds is replica-seconds × flavor cost weight (A100-equivalent
	// seconds); CostPerGood is the cost per SLA-met completion.
	CostSeconds float64 `json:"cost_seconds"`
	CostPerGood float64 `json:"cost_per_good_completion"`
	ScaleOuts   int     `json:"scale_outs"`
	ScaleIns    int     `json:"scale_ins"`
	Duration    float64 `json:"duration_s"`

	// Admission-control fields.
	Shed         int     `json:"shed,omitempty"`
	ShedFront    int     `json:"shed_front,omitempty"`
	ShedBoundary int     `json:"shed_boundary,omitempty"`
	ShedRate     float64 `json:"shed_rate,omitempty"` // shed fraction of arrivals
	Arrivals     int     `json:"arrivals,omitempty"`

	// Disaggregated-only fields.
	PrefillReplicas       int     `json:"prefill_replicas,omitempty"`
	DecodeReplicas        int     `json:"decode_replicas,omitempty"`
	PrefillReplicaSeconds float64 `json:"prefill_replica_seconds,omitempty"`
	DecodeReplicaSeconds  float64 `json:"decode_replica_seconds,omitempty"`
	Handoffs              int     `json:"handoffs,omitempty"`
	MeanTransferDelay     float64 `json:"mean_transfer_delay_s,omitempty"`

	// Heterogeneous-only field: the fleet's flavor mix, e.g.
	// "6×A100-80G + 12×RTX-4090".
	Flavors string `json:"flavors,omitempty"`

	// Fault-injection fields (the -faults trio).
	Crashes         int     `json:"crashes,omitempty"`
	Orphaned        int     `json:"orphaned,omitempty"`
	Recovered       int     `json:"recovered,omitempty"`
	ReShed          int     `json:"re_shed,omitempty"`
	Lost            int     `json:"lost,omitempty"`
	TransferRetries int     `json:"transfer_retries,omitempty"`
	RePrefills      int     `json:"re_prefills,omitempty"`
	MTTR            float64 `json:"mean_time_to_recover_s,omitempty"`

	// Multi-turn prefix-caching fields (the -multiturn sweep). CacheHitRate
	// is the fraction of arriving prompt tokens served from cache (resident
	// hits + host-tier restores); PrefillTokens is what prefill actually
	// encoded; PrefillSavings is the affinity arm's prefill-token reduction
	// versus the cache-blind arm at the same share point.
	PrefixShare    float64 `json:"prefix_share,omitempty"`
	CacheHitRate   float64 `json:"cache_hit_rate,omitempty"`
	CacheHitTokens int64   `json:"cache_hit_tokens,omitempty"`
	RestoredTokens int64   `json:"cache_restored_tokens,omitempty"`
	PrefillTokens  int64   `json:"prefill_compute_tokens,omitempty"`
	InputTokens    int64   `json:"input_tokens,omitempty"`
	PrefillSavings float64 `json:"prefill_savings_vs_blind,omitempty"`

	// Long-context chunked-prefill fields (the -longctx sweep). The short-*
	// axes cover the chat class's served requests; LongAttainment is the
	// long-document class's deadline attainment over all its arrivals, so
	// an arm cannot win the short axis by starving the long prompts.
	LongShare       float64 `json:"long_share,omitempty"`
	ChunkPolicy     string  `json:"chunk_policy,omitempty"`
	ShortP99TTFT    float64 `json:"short_p99_ttft_s,omitempty"`
	ShortAttainment float64 `json:"short_ttft_attainment,omitempty"`
	LongAttainment  float64 `json:"long_attainment,omitempty"`
	ShortServed     int     `json:"short_served,omitempty"`
	LongServed      int     `json:"long_served,omitempty"`
	ChunkIters      int     `json:"chunk_iters,omitempty"`
	PrefillChunks   int64   `json:"prefill_chunks,omitempty"`
}

// overloadMode returns the admission configuration an overload-trio mode
// runs under, or nil for a non-overload mode. The fault trio runs the full
// shedding pipeline: recovery re-admits orphans through it, and all three
// fault modes must share the admission story so the only delta is the
// fault/recovery configuration itself.
func overloadAdmission(opts options, mode string) *cluster.AdmissionConfig {
	switch mode {
	case "overload-admit":
		return &cluster.AdmissionConfig{TTFTBudget: opts.sla.TTFT, Slack: opts.slack}
	case "overload-shed", "faults-none", "faults-norecover", "faults-recover":
		return &cluster.AdmissionConfig{TTFTBudget: opts.sla.TTFT, Shed: true, Slack: opts.slack, DecodeMaxProbe: 0.9}
	case "overload-dynshed":
		// The -dynamic-slack A/B arm: identical to overload-shed except the
		// shed reserve tracks the observed engine-side admission wait
		// instead of trusting the static -slack guess.
		return &cluster.AdmissionConfig{TTFTBudget: opts.sla.TTFT, Shed: true, Slack: opts.slack, DecodeMaxProbe: 0.9, DynamicSlack: true}
	default:
		return nil
	}
}

// faultStorm scripts the -faults crash storm, anchored at the burst phase
// (t0 = 2×phase): two of the decode replicas crash back-to-back for tens of
// seconds, the prefill replica follows, six KV deliveries die on the wire,
// and a surviving decode replica runs 1.6× slow for 20s.
func faultStorm(opts options) faults.Script {
	t0 := 2 * opts.phaseSec
	return faults.Script{
		{At: t0 + 5, Kind: faults.Crash, Pool: 1, Replica: 0, Duration: 25},
		{At: t0 + 10, Kind: faults.Crash, Pool: 1, Replica: 1, Duration: 25},
		{At: t0 + 15, Kind: faults.Crash, Pool: 0, Replica: 0, Duration: 10},
		{At: t0 + 20, Kind: faults.LinkFailure, Count: 6},
		{At: t0 + 30, Kind: faults.Slowdown, Pool: 1, Replica: 2, Duration: 20, Factor: 1.6},
	}
}

// faultsFor returns the fault configuration a faults-trio mode runs under:
// nil for every non-fault mode and for faults-none (the no-fault ceiling on
// the identical cluster), the storm without a recovery story for
// faults-norecover, and the storm plus retries/re-admission for
// faults-recover (whose planner additionally provisions one spare decode
// replica — set in runOne via opts.spare).
func faultsFor(opts options, mode string) *cluster.FaultConfig {
	switch mode {
	case "faults-norecover":
		return &cluster.FaultConfig{Schedule: faultStorm(opts), LinkFailRate: 0.02, Seed: opts.seed}
	case "faults-recover":
		return &cluster.FaultConfig{
			Schedule: faultStorm(opts), Recover: true,
			MaxTransferRetries: 3, RetryBackoff: 0.05, RetryBackoffCap: 0.4,
			LinkFailRate: 0.02, Seed: opts.seed,
		}
	default:
		return nil
	}
}

func runOne(opts options, csvPath string) row {
	if strings.HasPrefix(opts.scaler, "multiturn-") {
		return runMultiturnOne(opts)
	}
	if strings.HasPrefix(opts.scaler, "longctx-") {
		return runLongctxOne(opts)
	}
	overloaded := strings.HasPrefix(opts.scaler, "overload-")
	heteroMode := strings.HasPrefix(opts.scaler, "hetero-")
	faultMode := strings.HasPrefix(opts.scaler, "faults-")
	if faultMode {
		// The whole trio runs on the fault-mode fleet: identical replica
		// budgets, so the only delta between the rows is the fault/recovery
		// configuration.
		opts.replicas = opts.faultR
		opts.max = opts.faultR
		opts.prefill = opts.replicas / 4
		if opts.prefill < 1 {
			opts.prefill = 1
		}
	}
	if opts.scaler == "faults-recover" {
		opts.spare = 2 // N+1 redundancy is part of the recovery story
	}
	wopts := opts
	if overloaded {
		wopts.burst *= opts.overloadX // ramp past what the capped fleet serves
	}
	reqs := burstyWorkload(wopts)
	var rep cluster.Report
	var history []cluster.PlanSample
	var flavorMix string
	switch {
	case opts.scaler == "disaggregated" || overloaded || faultMode:
		c := buildDisagg(opts, overloadAdmission(opts, opts.scaler), faultsFor(opts, opts.scaler))
		rep = c.Report(c.Serve(reqs, 1e9), opts.sla)
		history = c.Pool(1).PlanHistory() // the decode pool dominates cost
	case heteroMode:
		f := buildHetero(opts)
		rep = f.Report(f.Serve(reqs, 1e9), opts.sla)
		history = f.Pool(0).PlanHistory()
		var parts []string
		for _, fi := range f.Pool(0).Flavors() {
			parts = append(parts, fmt.Sprintf("%d×%s", fi.Replicas, fi.Name))
		}
		flavorMix = strings.Join(parts, " + ")
	default:
		f := buildFleet(opts)
		rep = f.Report(f.Serve(reqs, 1e9), opts.sla)
		history = f.Pool(0).PlanHistory()
	}

	mode := opts.scaler
	if mode == "predictive" || mode == "disaggregated" {
		mode += "-" + opts.predictor.String()
	}
	r := row{
		Mode:           mode,
		Policy:         opts.policy.String(),
		Finished:       rep.Finished,
		TTFTAttainment: attainment(rep.Summary.Total, rep.Summary.ViolatedTTFT),
		SLAAttainment:  rep.Summary.SLARate(),
		MeanTTFT:       rep.Summary.MeanTTFT,
		P99TTFT:        rep.Summary.P99TTFT,
		Goodput:        rep.Summary.Goodput,
		GoodputReq:     rep.Summary.GoodCompletionRate(),
		ReplicaSeconds: rep.ReplicaSeconds,
		CostSeconds:    rep.CostSeconds,
		CostPerGood:    rep.Summary.CostPerGoodCompletion(),
		ScaleOuts:      rep.ScaleOuts,
		ScaleIns:       rep.ScaleIns,
		Duration:       rep.Duration,
		Flavors:        flavorMix,
	}
	if opts.scaler == "disaggregated" || overloaded || faultMode {
		r.PrefillReplicas = rep.Pools[0].Replicas
		r.DecodeReplicas = rep.Pools[1].Replicas
		r.PrefillReplicaSeconds = rep.Pools[0].ReplicaSeconds
		r.DecodeReplicaSeconds = rep.Pools[1].ReplicaSeconds
		r.Handoffs = rep.Handoffs
		r.MeanTransferDelay = rep.MeanTransferDelay
	}
	if overloaded || faultMode {
		r.Arrivals = len(reqs)
		r.Shed = rep.Shed
		r.ShedFront = rep.ShedFront
		r.ShedBoundary = rep.ShedBoundary
		if len(reqs) > 0 {
			r.ShedRate = float64(rep.Shed) / float64(len(reqs))
		}
	}
	if faultMode {
		r.Crashes = rep.Summary.Crashes
		r.Orphaned = rep.Summary.Orphaned
		r.Recovered = rep.Summary.Recovered
		r.ReShed = rep.Summary.ReShed
		r.Lost = rep.Summary.Lost
		r.TransferRetries = rep.Summary.TransferRetries
		r.RePrefills = rep.Summary.RePrefills
		r.MTTR = rep.Summary.MeanTimeToRecover
	}
	// Only the cost-aware hetero mode writes its trace: the premium
	// baseline runs after it against the same path and would overwrite the
	// per-flavor planning history the flag exists to study.
	if csvPath != "" && (opts.scaler == "predictive" || opts.scaler == "disaggregated" || opts.scaler == "hetero-cost") {
		writePlanCSV(csvPath, history)
	}
	return r
}

// buildDisagg assembles the disaggregated cluster: a prefill-only pool
// (current-usage admission — prompts vacate at the end of their own
// iteration) sized by the planner's TTFT interpolation, and a decode-only
// pool (Past-Future admission) sized by its TPOT interpolation, joined by
// a finite-bandwidth KV-transfer link. A non-nil admission config puts the
// cluster-front pipeline (EDF hold + deadline shedding) in front of both
// pools and gives every decode replica its own ingress lane, so the
// contention-aware router can price per-destination wire queueing. A
// non-nil fault config arms the crash storm (opts.spare then adds N+1
// decode redundancy on the recovery configuration).
func buildDisagg(opts options, adm *cluster.AdmissionConfig, flt *cluster.FaultConfig) *cluster.Cluster {
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	prefill := make([]*engine.Engine, opts.prefill)
	for i := range prefill {
		prefill[i] = engine.MustNew(engine.Config{
			Perf:             pm,
			Scheduler:        core.MustNewAggressive(0.95),
			Role:             engine.RolePrefillOnly,
			CapacityOverride: opts.capacity,
		})
	}
	decode := make([]*engine.Engine, opts.replicas-opts.prefill)
	for i := range decode {
		decode[i] = engine.MustNew(engine.Config{
			Perf: pm,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(opts.seed + uint64(i)),
			}),
			Role:             engine.RoleDecodeOnly,
			CapacityOverride: opts.capacity,
		})
	}
	planner := func(max int, headroom float64) *cluster.PlannerConfig {
		return &cluster.PlannerConfig{
			SLA: opts.sla, Min: 1, Max: max,
			Interval: opts.interval, Predictor: opts.predictor,
			ActivationDelay: opts.delay, Headroom: headroom,
		}
	}
	link := kv.MustNewLink(opts.linkGBps*1e9, opts.linkLat)
	// The overload and fault trios compare policies on an identical link
	// model: per-destination ingress lanes everywhere, so the only delta
	// between the modes is the admission/recovery pipeline itself.
	if strings.HasPrefix(opts.scaler, "overload-") || strings.HasPrefix(opts.scaler, "faults-") {
		link.PerDestination = true
	}
	decodePlan := planner(len(decode), opts.decodeHR)
	decodePlan.Spare = opts.spare
	c, err := cluster.NewCluster(cluster.ClusterConfig{
		Pools: []cluster.Config{
			{Role: engine.RolePrefillOnly, Replicas: prefill, Policy: opts.policy, Planner: planner(len(prefill), opts.headroom)},
			{Role: engine.RoleDecodeOnly, Replicas: decode, Policy: opts.policy, Planner: decodePlan},
		},
		Link:      link,
		Admission: adm,
		Faults:    flt,
		Recorder:  opts.rec,
	})
	if err != nil {
		fatal(err)
	}
	return c
}

func attainment(total, violated int) float64 {
	if total == 0 {
		return 0
	}
	return 1 - float64(violated)/float64(total)
}

// buildHetero assembles the heterogeneous-fleet modes: "hetero-cost" is a
// mixed monolithic fleet — `replicas` premium A100-80G plus `econ` economy
// replicas — under the cost-aware SLA planner, which fills demand with the
// cheapest flavor whose interpolated latency still meets the budget;
// "hetero-premium" forces the same ramp onto the premium flavor alone (the
// pre-heterogeneity fleet), the baseline the CostSeconds axis is judged
// against.
func buildHetero(opts options) *cluster.Cluster {
	if opts.scaler == "hetero-premium" {
		// The premium baseline IS the predictive fleet — same engines, same
		// seeds, same planner — so build it through the same code path.
		opts.scaler = "predictive"
		return buildFleet(opts)
	}
	premium := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	econ := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(opts.econGPU, 1)})
	// Seed offset disjoint from both the premium engines (0..replicas) and
	// the workload generator (seed+1000), so no scheduler shares an RNG
	// stream with the stream that generated its load.
	engines := append(mkEngines(premium, opts.replicas, opts, 0), mkEngines(econ, opts.econR, opts, 1_000_000)...)
	// Speed-aware by default: the fastest flavor runs at the standard
	// -headroom target and slower flavors derive theirs from absolute slack
	// time. A non-zero -hetero-headroom restores the old uniform override.
	plan := &cluster.PlannerConfig{
		SLA: opts.sla, Min: opts.min, Max: len(engines),
		Interval: opts.interval, Predictor: opts.predictor,
		ActivationDelay: opts.delay, Headroom: opts.headroom, SpeedAware: true,
	}
	if opts.heteroHR > 0 {
		plan.Headroom = opts.heteroHR
		plan.SpeedAware = false
	}
	return newFleet(cluster.Config{Replicas: engines, Policy: opts.policy, Planner: plan}, opts.rec)
}

// newFleet builds a monolithic fleet — the cluster of one mixed-role pool —
// with rec attached, and exits on a configuration error.
func newFleet(pool cluster.Config, rec obs.Recorder) *cluster.Cluster {
	c, err := cluster.NewCluster(cluster.ClusterConfig{Pools: []cluster.Config{pool}, Recorder: rec})
	if err != nil {
		fatal(err)
	}
	return c
}

// mkEngines builds n Past-Future replicas on one perf model, seeded
// deterministically from the run seed (seedOff separates flavor groups).
func mkEngines(pm *perf.Model, n int, opts options, seedOff uint64) []*engine.Engine {
	out := make([]*engine.Engine, n)
	for i := range out {
		out[i] = engine.MustNew(engine.Config{
			Perf: pm,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(opts.seed + seedOff + uint64(i)),
			}),
			CapacityOverride: opts.capacity,
		})
	}
	return out
}

func buildFleet(opts options) *cluster.Cluster {
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	engines := mkEngines(pm, opts.replicas, opts, 0)
	cfg := cluster.Config{Replicas: engines, Policy: opts.policy}
	switch opts.scaler {
	case "none":
	case "reactive":
		cfg.Scale = &cluster.AutoScale{
			Min: opts.min, Max: opts.max,
			HighWater: opts.high, LowWater: opts.low,
			ActivationDelay: opts.delay, EvalInterval: opts.interval,
		}
	case "predictive":
		cfg.Planner = &cluster.PlannerConfig{
			SLA: opts.sla, Min: opts.min, Max: opts.max,
			Interval: opts.interval, Predictor: opts.predictor,
			ActivationDelay: opts.delay, Headroom: opts.headroom,
		}
	default:
		fatal(fmt.Errorf("unknown scaler %q (none, reactive, predictive)", opts.scaler))
	}
	return newFleet(cfg, opts.rec)
}

// burstyWorkload synthesizes four ShareGPT phases: calm, ramp, burst, calm.
// The linear ramp is what separates trend-following predictors from
// reactive thresholds: load builds over several planner intervals before
// the peak.
func burstyWorkload(opts options) []*request.Request {
	r := rng.New(opts.seed + 1000)
	steps := int(opts.phaseSec / 10)
	if steps < 3 {
		steps = 3
	}
	phases := []workload.RatePhase{{Rate: opts.rate, Duration: opts.phaseSec}}
	phases = append(phases, workload.Ramp(opts.rate, opts.burst, opts.phaseSec, steps)...)
	phases = append(phases,
		workload.RatePhase{Rate: opts.burst, Duration: opts.phaseSec},
		workload.RatePhase{Rate: opts.rate, Duration: opts.phaseSec},
	)
	reqs := workload.Build(workload.ShareGPT, r, workload.PhasedCount(phases), 1, 512)
	workload.AssignPhasedArrivals(reqs, r, phases, 0)
	return reqs
}

func printRows(opts options, rows []row) {
	fmt.Printf("fleet: %d×Llama2-7B (cap %d tok), policy %s, SLA %s\n",
		opts.replicas, opts.capacity, opts.policy, opts.sla)
	fmt.Printf("workload: %.0f→%.0f→%.0f→%.0f req/s × %.0fs phases (seed %d; overload ramps to %.0f)\n",
		opts.rate, (opts.rate+opts.burst)/2, opts.burst, opts.rate, opts.phaseSec, opts.seed,
		opts.burst*opts.overloadX)
	fmt.Printf("%-20s %9s %9s %9s %9s %9s %12s %10s %6s\n",
		"mode", "ttft-att", "sla-att", "p99TTFT", "good-r/s", "shed", "replica-sec", "cost-sec", "out/in")
	for _, r := range rows {
		fmt.Printf("%-20s %8.1f%% %8.1f%% %8.2fs %9.2f %9d %12.0f %10.0f %3d/%-3d\n",
			r.Mode, r.TTFTAttainment*100, r.SLAAttainment*100,
			r.P99TTFT, r.GoodputReq, r.Shed, r.ReplicaSeconds, r.CostSeconds, r.ScaleOuts, r.ScaleIns)
	}
	for _, r := range rows {
		if r.Flavors != "" {
			fmt.Printf("%s: %s, %.0f cost-sec (%.2f per SLA-met completion)\n",
				r.Mode, r.Flavors, r.CostSeconds, r.CostPerGood)
		}
	}
	for _, r := range rows {
		if r.Crashes > 0 {
			fmt.Printf("%s: %d crashes (MTTR %.1fs), %d orphaned, %d recovered + %d re-shed + %d lost, %d transfer retries, %d re-prefills\n",
				r.Mode, r.Crashes, r.MTTR, r.Orphaned, r.Recovered, r.ReShed, r.Lost, r.TransferRetries, r.RePrefills)
		}
	}
	for _, r := range rows {
		if r.Handoffs > 0 {
			fmt.Printf("%s: %d prefill + %d decode replicas (%.0f + %.0f replica-sec), %d handoffs, mean transfer %.1f ms",
				r.Mode, r.PrefillReplicas, r.DecodeReplicas,
				r.PrefillReplicaSeconds, r.DecodeReplicaSeconds,
				r.Handoffs, r.MeanTransferDelay*1e3)
			if r.Shed > 0 {
				fmt.Printf(", shed %d/%d (%d front, %d at transfer boundary)",
					r.Shed, r.Arrivals, r.ShedFront, r.ShedBoundary)
			}
			fmt.Println()
		}
	}
	printMultiturn(rows)
	printLongctx(rows)
}

func writeJSON(path string, opts options, rows []row) {
	out := struct {
		Replicas int     `json:"replicas"`
		Capacity int     `json:"capacity_tokens"`
		TTFT     float64 `json:"sla_ttft_s"`
		TPOT     float64 `json:"sla_tpot_s"`
		Rate     float64 `json:"base_rate"`
		Burst    float64 `json:"burst_rate"`
		Overload float64 `json:"overload_factor"`
		Slack    float64 `json:"admission_slack_s"`
		Seed     uint64  `json:"seed"`
		Modes    []row   `json:"modes"`
	}{opts.replicas, opts.capacity, opts.sla.TTFT, opts.sla.MTPOT,
		opts.rate, opts.burst, opts.overloadX, opts.slack, opts.seed, rows}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

func writePlanCSV(path string, samples []cluster.PlanSample) {
	fl, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer fl.Close()
	// targets is the per-flavor breakdown of target, "|"-joined in flavor
	// order — one value for a homogeneous pool, the cost-aware placement
	// decision itself for a mixed fleet.
	fmt.Fprintln(fl, "at_s,rate,isl,osl,pred_rate,target,active,corr_ttft,corr_tpot,shed,crashes,targets")
	for _, s := range samples {
		parts := make([]string, len(s.Targets))
		for i, t := range s.Targets {
			parts[i] = fmt.Sprintf("%d", t)
		}
		fmt.Fprintf(fl, "%.1f,%.3f,%.1f,%.1f,%.3f,%d,%d,%.3f,%.3f,%d,%d,%s\n",
			s.At, s.Rate, s.ISL, s.OSL, s.PredRate, s.Target, s.Active, s.CorrTTFT, s.CorrTPOT,
			s.Shed, s.Crashes, strings.Join(parts, "|"))
	}
	fmt.Println("wrote", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleetsim:", err)
	os.Exit(1)
}
