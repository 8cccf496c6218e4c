// Command fleetsim runs the fleet-scale scenarios: one workload served by
// several fleets (the scenario's arms), judged on SLA attainment, goodput and
// provisioning cost, and checked against the claim the scenario backs.
//
//	fleetsim ramp                          # reactive vs predictive vs disaggregated
//	fleetsim -json BENCH_fleet.json fleet  # every scenario but scale
//	fleetsim -csv plan.csv ramp            # planner evaluation trace
//	fleetsim -trace t.json -spans s.csv -timeseries ts.csv faults
//	fleetsim router                        # round-robin vs least-loaded vs future-headroom
//	fleetsim -json BENCH_scale.json scale
//
// A scenario (scenarios.go, scale.go) is a name, its arms and its win
// conditions; its parameters are constants beside it, not flags. The runner below serves every arm, prints
// the table, writes the outputs and then one line per win condition, and the
// run exits 1 if any fails.
//
// -trace/-timeseries/-spans attach an observability collector to the run's
// last arm; -spans is the one per-request file. It is a strict observer: a
// traced run's rows and stdout equal an untraced run's.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"strings"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
)

// A scenario is one registry entry: the arms the runner serves in order,
// and the claims their rows must back.
type scenario struct {
	name, about string
	// setup describes the scenario's fleet and traffic when they are not
	// the shared ones the constants in scenarios.go build.
	setup string
	arms  []arm
	// wins states the win conditions over the scenario's rows, in arm order.
	wins func(rows []row) []claim
	// solo, set instead of arms, runs a scenario that measures itself.
	solo func(w io.Writer, seed uint64, jsonPath string) ([]claim, error)
}

// An arm is one configuration a scenario serves.
type arm struct {
	mode    string
	traffic func(seed uint64) []*request.Request
	fleet   func(seed uint64, rec obs.Recorder) *cluster.Cluster
	// fill sets the arm's own row fields beyond the standard ones.
	fill func(r *row, s served)
	// plan marks an arm whose planner history -csv records (the last wins).
	plan bool
}

// served is what an arm's run leaves for its fill.
type served struct {
	c       *cluster.Cluster
	reqs    []*request.Request
	results []*engine.Result
	rep     cluster.Report
	prev    []row // the scenario's rows before this arm's
}

// claim is one win condition and whether the run backs it.
type claim struct {
	text string
	ok   bool
}

var (
	registry = []scenario{rampScenario, overloadScenario, heteroScenario, faultsScenario, multiturnScenario, longctxScenario, routerScenario, scaleScenario}
	// fleetSuite is what BENCH_fleet.json records.
	fleetSuite = []string{"ramp", "overload", "hetero", "faults", "multiturn", "longctx"}
)

// outputs are the paths the run writes ("" = not requested).
type outputs struct {
	json, csv, trace, timeseries, spans string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it returns 2 on a usage error, 1 on a failed
// run or win condition, 0 otherwise. Reports go to stdout, everything else
// to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var out outputs
	seed := fs.Uint64("seed", 1, "random seed")
	fs.StringVar(&out.json, "json", "", "write the rows as JSON to this file (scale: its replay record)")
	fs.StringVar(&out.csv, "csv", "", "write the planner evaluation trace as CSV to this file")
	fs.StringVar(&out.trace, "trace", "", "write a Chrome/Perfetto trace-event JSON of the last arm to this file")
	fs.StringVar(&out.timeseries, "timeseries", "", "write the last arm's interval rollup time series as CSV to this file")
	fs.StringVar(&out.spans, "spans", "", "write the last arm's per-request spans (exact TTFT decomposition, sizes, pacing) as CSV to this file")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fleetsim [flags] <scenario>...\n\nscenarios:")
		for _, s := range registry {
			fmt.Fprintf(stderr, "  %-10s %s\n", s.name, s.about)
		}
		fmt.Fprintf(stderr, "  %-10s %s (BENCH_fleet.json)\n\nflags:\n", "fleet", strings.Join(fleetSuite, ", "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	list, err := resolve(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "fleetsim:", err)
		fs.Usage()
		return 2
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err == nil {
			defer f.Close()
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(stderr, "fleetsim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	failed := false
	if s := list[0]; s.solo != nil {
		var cs []claim
		if cs, err = s.solo(stdout, *seed, out.json); err == nil {
			if failed = judge(stdout, s.name, cs); !failed && out.json != "" {
				fmt.Fprintln(stderr, "wrote", out.json)
			}
		}
	} else {
		failed, err = runArms(stdout, stderr, list, *seed, out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fleetsim:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// resolve maps scenario names to registry entries, expanding fleet. A solo
// scenario runs alone.
func resolve(names []string) ([]scenario, error) {
	var list []scenario
	for _, n := range names {
		expand := []string{n}
		if n == "fleet" {
			expand = fleetSuite
		}
		for _, m := range expand {
			i := slices.IndexFunc(registry, func(s scenario) bool { return s.name == m })
			if i < 0 {
				return nil, fmt.Errorf("unknown scenario %q", m)
			}
			list = append(list, registry[i])
		}
	}
	if len(list) == 0 {
		return nil, errors.New("name a scenario")
	}
	if len(list) > 1 && slices.ContainsFunc(list, func(s scenario) bool { return s.solo != nil }) {
		return nil, errors.New("scale runs alone")
	}
	return list, nil
}

// runArms serves every arm of the listed scenarios in order, prints the
// table, writes the outputs, then judges each scenario's win conditions.
func runArms(stdout, stderr io.Writer, list []scenario, seed uint64, out outputs) (failed bool, err error) {
	// Any observability export attaches one collector to the run's last arm
	// (the full-recovery or full-shedding configuration of the trios).
	var col *obs.Collector
	last := list[len(list)-1].arms
	if out.trace != "" || out.timeseries != "" || out.spans != "" {
		col = obs.NewCollector(obsInterval)
		fmt.Fprintf(stderr, "observability: recording mode %s\n", last[len(last)-1].mode)
	}
	var rows []row
	var plan []cluster.PlanSample
	byScenario := make([][]row, len(list))
	for i, s := range list {
		for j, a := range s.arms {
			var rec obs.Recorder
			if col != nil && i == len(list)-1 && j == len(last)-1 {
				rec = col
			}
			r, c := serve(a, seed, rec, byScenario[i])
			if a.plan {
				plan = c.Pool(c.NumPools() - 1).PlanHistory() // the decode pool dominates cost
			}
			byScenario[i] = append(byScenario[i], r)
			rows = append(rows, r)
		}
	}

	printRows(stdout, seed, list, rows)
	type output struct {
		path  string
		write func(string) error
	}
	writes := []output{
		{out.json, func(path string) error { return writeJSON(path, seed, rows) }},
		{out.csv, func(path string) error { return writePlanCSV(path, plan) }},
	}
	if col != nil {
		writes = append(writes,
			output{out.trace, col.WritePerfettoFile},
			output{out.timeseries, col.WriteTimeSeriesCSVFile},
			output{out.spans, col.WriteSpanCSVFile})
	}
	for _, w := range writes {
		if w.path == "" {
			continue
		}
		if err := w.write(w.path); err != nil {
			return false, err
		}
		fmt.Fprintln(stderr, "wrote", w.path)
	}
	for i, s := range list {
		failed = judge(stdout, s.name, s.wins(byScenario[i])) || failed
	}
	return failed, nil
}

// judge prints one line per claim and reports whether any failed.
func judge(w io.Writer, name string, cs []claim) (failed bool) {
	for _, c := range cs {
		v := "ok"
		if !c.ok {
			v, failed = "FAIL", true
		}
		fmt.Fprintf(w, "%-4s %s: %s\n", v, name, c.text)
	}
	return failed
}

// serve runs one arm and fills its row: the standard fields every arm
// reports, the per-pool split of a disaggregated cluster, then the arm's own.
func serve(a arm, seed uint64, rec obs.Recorder, prev []row) (row, *cluster.Cluster) {
	reqs := a.traffic(seed)
	c := a.fleet(seed, rec)
	results := c.Serve(reqs, 1e9)
	rep := c.Report(results, sla)
	r := row{
		Mode:           a.mode,
		Policy:         policy.String(),
		Finished:       rep.Finished,
		TTFTAttainment: 1 - float64(rep.Summary.ViolatedTTFT)/float64(rep.Summary.Total),
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
	}
	if len(rep.Pools) == 2 {
		r.PrefillReplicas = rep.Pools[0].Replicas
		r.DecodeReplicas = rep.Pools[1].Replicas
		r.PrefillReplicaSeconds = rep.Pools[0].ReplicaSeconds
		r.DecodeReplicaSeconds = rep.Pools[1].ReplicaSeconds
		r.Handoffs = rep.Handoffs
		r.MeanTransferDelay = rep.MeanTransferDelay
	}
	if a.fill != nil {
		a.fill(&r, served{c: c, reqs: reqs, results: results, rep: rep, prev: prev})
	}
	return r, c
}

// row is one arm's reported outcome. P99TTFT covers *served* requests only
// (a shed request has no latency); SLAAttainment counts every shed as a TTFT
// violation, so admission control cannot launder attainment.
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

	Flavors string `json:"flavors,omitempty"`

	// Fault-injection fields (the faults scenario).
	Crashes         int     `json:"crashes,omitempty"`
	Orphaned        int     `json:"orphaned,omitempty"`
	Recovered       int     `json:"recovered,omitempty"`
	ReShed          int     `json:"re_shed,omitempty"`
	Lost            int     `json:"lost,omitempty"`
	TransferRetries int     `json:"transfer_retries,omitempty"`
	RePrefills      int     `json:"re_prefills,omitempty"`
	MTTR            float64 `json:"mean_time_to_recover_s,omitempty"`

	// Multi-turn prefix-caching fields. CacheHitRate is the share of prompt
	// tokens served from cache (hits + host-tier restores); PrefillSavings is
	// the affinity arm's prefill-token cut against blind at the same share.
	PrefixShare    float64 `json:"prefix_share,omitempty"`
	CacheHitRate   float64 `json:"cache_hit_rate,omitempty"`
	CacheHitTokens int64   `json:"cache_hit_tokens,omitempty"`
	RestoredTokens int64   `json:"cache_restored_tokens,omitempty"`
	PrefillTokens  int64   `json:"prefill_compute_tokens,omitempty"`
	InputTokens    int64   `json:"input_tokens,omitempty"`
	PrefillSavings float64 `json:"prefill_savings_vs_blind,omitempty"`

	// Long-context chunked-prefill fields. Short* cover the chat class's
	// served requests; LongAttainment covers every long-document arrival, so
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

	// Routing fields (the router scenario): the offered Poisson rate and
	// the coefficient of variation of requests routed per replica.
	Rate      float64 `json:"rate_req_s,omitempty"`
	Imbalance float64 `json:"imbalance,omitempty"`
}

// printRows prints the table: first the shared fleet and workload, if any
// listed scenario runs them, and each other scenario's own setup.
func printRows(w io.Writer, seed uint64, list []scenario, rows []row) {
	if slices.ContainsFunc(list, func(s scenario) bool { return s.setup == "" }) {
		fmt.Fprintf(w, "fleet: %d×Llama2-7B (cap %d tok), policy %s, SLA %s\n", replicas, capacity, policy, sla)
		fmt.Fprintf(w, "workload: %.0f→%.0f→%.0f→%.0f req/s × %.0fs phases (seed %d; overload ramps to %.0f)\n",
			rate, (rate+burst)/2, burst, rate, phaseSec, seed, burst*overloadX)
	}
	for _, s := range list {
		if s.setup != "" {
			fmt.Fprintf(w, "%s: %s (seed %d)\n", s.name, s.setup, seed)
		}
	}
	fmt.Fprintf(w, "%-26s %9s %9s %9s %9s %9s %12s %10s %6s\n",
		"mode", "ttft-att", "sla-att", "p99TTFT", "good-r/s", "shed", "replica-sec", "cost-sec", "out/in")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %8.1f%% %8.1f%% %8.2fs %9.2f %9d %12.0f %10.0f %3d/%-3d\n",
			r.Mode, r.TTFTAttainment*100, r.SLAAttainment*100,
			r.P99TTFT, r.GoodputReq, r.Shed, r.ReplicaSeconds, r.CostSeconds, r.ScaleOuts, r.ScaleIns)
	}
	for _, r := range rows {
		if r.Flavors != "" {
			fmt.Fprintf(w, "%s: %s, %.0f cost-sec (%.2f per SLA-met completion)\n",
				r.Mode, r.Flavors, r.CostSeconds, r.CostPerGood)
		}
		if r.Crashes > 0 {
			fmt.Fprintf(w, "%s: %d crashes (MTTR %.1fs), %d orphaned, %d recovered + %d re-shed + %d lost, %d transfer retries, %d re-prefills\n",
				r.Mode, r.Crashes, r.MTTR, r.Orphaned, r.Recovered, r.ReShed, r.Lost, r.TransferRetries, r.RePrefills)
		}
		if r.Rate > 0 {
			fmt.Fprintf(w, "%s: %d finished, mean TTFT %.2fs, imbalance %.2f\n", r.Mode, r.Finished, r.MeanTTFT, r.Imbalance)
		}
		if r.Handoffs > 0 {
			fmt.Fprintf(w, "%s: %d prefill + %d decode replicas (%.0f + %.0f replica-sec), %d handoffs, mean transfer %.1f ms",
				r.Mode, r.PrefillReplicas, r.DecodeReplicas,
				r.PrefillReplicaSeconds, r.DecodeReplicaSeconds,
				r.Handoffs, r.MeanTransferDelay*1e3)
			if r.Shed > 0 {
				fmt.Fprintf(w, ", shed %d/%d (%d front, %d at transfer boundary)",
					r.Shed, r.Arrivals, r.ShedFront, r.ShedBoundary)
			}
			fmt.Fprintln(w)
		}
	}
}

func writeJSON(path string, seed uint64, rows []row) error {
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
	}{replicas, capacity, sla.TTFT, sla.MTPOT, rate, burst, overloadX, slack, seed, rows}
	return writeIndented(path, out)
}

// writeIndented writes v as indented JSON with a trailing newline.
func writeIndented(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writePlanCSV(path string, samples []cluster.PlanSample) error {
	var b strings.Builder
	// targets is the per-flavor breakdown of target, "|"-joined in flavor
	// order — one value for a homogeneous pool, the cost-aware placement
	// decision itself for a mixed fleet.
	fmt.Fprintln(&b, "at_s,rate,isl,osl,pred_rate,target,active,corr_ttft,corr_tpot,shed,crashes,targets")
	for _, s := range samples {
		parts := make([]string, len(s.Targets))
		for i, t := range s.Targets {
			parts[i] = fmt.Sprintf("%d", t)
		}
		fmt.Fprintf(&b, "%.1f,%.3f,%.1f,%.1f,%.3f,%d,%d,%.3f,%.3f,%d,%d,%s\n",
			s.At, s.Rate, s.ISL, s.OSL, s.PredRate, s.Target, s.Active, s.CorrTTFT, s.CorrTPOT,
			s.Shed, s.Crashes, strings.Join(parts, "|"))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
