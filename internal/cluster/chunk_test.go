package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// longctxReqs builds the blended chat + long-document arrival list the
// chunked-prefill pins run on: 10% of prompts are 16k–64k documents, the
// head-of-line hazard chunking exists for.
func longctxReqs(n int, rate float64, seed uint64) []*request.Request {
	r := rng.New(seed)
	reqs := workload.Build(workload.LongCtxMix(0.10), r, n, 1, 512)
	workload.AssignPoissonArrivals(reqs, r, rate, 0)
	return reqs
}

// chunkedPrefillReplicas mirrors prefillReplicas with chunked prefill
// configured: prompts land chunk by chunk and the KV handoff is emitted
// strictly after the last chunk.
func chunkedPrefillReplicas(n, capacity int, chunk engine.ChunkConfig) []*engine.Engine {
	pm := testPerf()
	out := make([]*engine.Engine, n)
	for i := range out {
		out[i] = engine.MustNew(engine.Config{
			Perf:             pm,
			Scheduler:        core.MustNewAggressive(0.95),
			Role:             engine.RolePrefillOnly,
			CapacityOverride: capacity,
			MaxPrefillTokens: 2048,
			Chunked:          chunk,
		})
	}
	return out
}

// runChunkPin drives the disaggregated storm scenario on long-context
// traffic with the given chunking configuration on the prefill pool. The
// zero-value ChunkConfig arm is the pre-chunking reference shape: same
// pools, same admission, same per-iteration prefill budget.
func runChunkPin(seed uint64, chunk engine.ChunkConfig, flt *FaultConfig, rec ...obs.Recorder) decisionTrace {
	var recorder obs.Recorder
	if len(rec) > 0 {
		recorder = rec[0]
	}
	var tr decisionTrace
	c := chunkCluster(seed, chunk, flt, recorder, &tr)
	results := c.Serve(longctxReqs(220, 30, seed), 1e9)
	tr.collect(c, results, chunkSLA)
	return tr
}

// chunkSLA is the long-context pins' SLA: a TTFT budget a 64k prompt can make.
var chunkSLA = metrics.SLA{TTFT: 20, MTPOT: 1.5}

// chunkCluster builds the chunked pins' cluster: chunked prefill-only
// replicas under the given chunking, decode replicas behind a real link,
// admission with shedding, flt's faults. tr logs its routing.
func chunkCluster(seed uint64, chunk engine.ChunkConfig, flt *FaultConfig, recorder obs.Recorder, tr *decisionTrace) *Cluster {
	return MustNewCluster(ClusterConfig{
		Pools: []Config{
			{
				Role: engine.RolePrefillOnly, Policy: FutureHeadroom,
				Replicas: chunkedPrefillReplicas(2, 80_000, chunk),
				OnRoute:  tr.onRoute(0),
			},
			{
				Role: engine.RoleDecodeOnly, Policy: FutureHeadroom,
				Replicas: decodeReplicas(3, 70_000, seed),
				OnRoute:  tr.onRoute(1),
			},
		},
		Link:      kv.MustNewLink(50e9, 0.002),
		Admission: &AdmissionConfig{TTFTBudget: chunkSLA.TTFT, Shed: true, Slack: 0.5},
		Faults:    flt,
		Recorder:  recorder,
	})
}

// chunkStorm is the fault schedule for the chunked pins.
func chunkStorm(seed uint64) *FaultConfig {
	return &FaultConfig{
		Schedule: stormSchedule(seed), Recover: true,
		MaxTransferRetries: 3, RetryBackoff: 0.05,
		LinkFailRate: 0.08, Seed: seed ^ 0x9e37,
	}
}

// chunkedCachedReplicas builds mixed-role engines running chunked prefill
// with the prefix cache enabled — cache hits skip cached leading chunks.
func chunkedCachedReplicas(n, capacity int, seed uint64) []*engine.Engine {
	pm := testPerf()
	out := make([]*engine.Engine, n)
	for i := range out {
		out[i] = engine.MustNew(engine.Config{
			Perf: pm,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(seed + uint64(i)),
			}),
			CapacityOverride: capacity,
			MaxPrefillTokens: 1024,
			Chunked: engine.ChunkConfig{
				Enabled: true, Policy: engine.ChunkSLOAware, ChunkTokens: 256,
			},
			PrefixCache: engine.PrefixCacheConfig{Enabled: true, BlockTokens: 64},
		})
	}
	return out
}

// TestChunkedConservation is the exactly-once law through the full stack:
// chunked prefill × prefix-cache hits × crash-and-recover storms. Every
// request terminates exactly once in {completed, shed}; no request is lost
// or held; and the run demonstrably chunked prompts and hit the cache —
// including crashes that land mid-chunk and recoveries that re-prefill from
// whatever cached prefix survived.
func TestChunkedConservation(t *testing.T) {
	const n = 300
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sch := faults.Script{
				{At: 0.5, Kind: faults.Crash, Pool: 0, Replica: 0, Duration: 1.5},
				{At: 1.5, Kind: faults.Crash, Pool: 0, Replica: 2, Duration: 1},
			}
			sch = append(sch, faults.Generate(rng.New(seed), 0, 3, 4, 1, 8)...)
			c := MustNewCluster(ClusterConfig{
				Pools: []Config{{
					Replicas:       chunkedCachedReplicas(3, 8_000, seed),
					Policy:         FutureHeadroom,
					AffinityWeight: 0.3,
				}},
				Admission: &AdmissionConfig{TTFTBudget: 5, Shed: true},
				Faults:    &FaultConfig{Schedule: sch, Recover: true},
			})
			results := c.Serve(sessionReqs(n, 60, seed), 1e9)
			finished := map[int64]bool{}
			hits, chunkIters := int64(0), 0
			var chunks int64
			for _, res := range results {
				for _, r := range res.Finished {
					if finished[r.ID] {
						t.Fatalf("request %d finished twice", r.ID)
					}
					finished[r.ID] = true
				}
				if len(res.Failed) != 0 || len(res.TimedOut) != 0 {
					t.Fatalf("recovery run saw failures (%d) or timeouts (%d)", len(res.Failed), len(res.TimedOut))
				}
				hits += res.CacheHitTokens
				chunkIters += res.ChunkIters
				chunks += res.PrefillChunks
			}
			shed := map[int64]bool{}
			for _, r := range c.ShedRequests() {
				if shed[r.ID] || finished[r.ID] {
					t.Fatalf("request %d terminated twice", r.ID)
				}
				shed[r.ID] = true
			}
			if got := len(finished) + len(shed); got != n {
				t.Fatalf("%d finished + %d shed = %d, want %d", len(finished), len(shed), got, n)
			}
			if lost := c.LostRequests(); len(lost) != 0 {
				t.Fatalf("lost %d requests", len(lost))
			}
			if c.HeldRequests() != 0 {
				t.Fatalf("%d requests still held", c.HeldRequests())
			}
			if chunkIters == 0 || chunks == 0 {
				t.Fatal("conservation run never chunked a prompt")
			}
			if hits == 0 {
				t.Fatal("conservation run exercised no cache hits")
			}
		})
	}
}

// TestChunkedObservability pins the obs satellite: on a chunked run, spans
// split prefill into per-chunk sub-stages yet the TTFT decomposition still
// balances exactly, chunk counts ride the span CSV round-trip, and the
// interval rollup carries the chunk-count/chunk-token counters.
func TestChunkedObservability(t *testing.T) {
	col := obs.NewCollector(1)
	chunk := engine.ChunkConfig{Enabled: true, Policy: engine.ChunkSLOAware, ChunkTokens: 512}
	runChunkPin(3, chunk, nil, col)

	if err := col.CheckDecomposition(1e-6); err != nil {
		t.Fatalf("chunked spans broke the TTFT decomposition: %v", err)
	}
	spanChunks := 0
	for _, s := range col.Spans() {
		spanChunks += s.Chunks
	}
	if spanChunks == 0 {
		t.Fatal("no span recorded a prefill chunk")
	}

	var spanCSV bytes.Buffer
	if err := col.WriteSpanCSV(&spanCSV); err != nil {
		t.Fatal(err)
	}
	rows, err := obs.ReadSpanCSV(bytes.NewReader(spanCSV.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rowChunks := 0
	for _, r := range rows {
		rowChunks += r.Chunks
	}
	if rowChunks != spanChunks {
		t.Fatalf("span CSV round-trip lost chunks: %d rows vs %d spans", rowChunks, spanChunks)
	}

	tsChunks, tsTokens := 0, int64(0)
	for _, r := range col.Rows() {
		tsChunks += r.ChunkCount
		tsTokens += r.ChunkTokens
	}
	if tsChunks == 0 || tsTokens == 0 {
		t.Fatalf("interval rollup missed chunking: count=%d tokens=%d", tsChunks, tsTokens)
	}

	// The disabled arm records nothing chunk-shaped anywhere.
	off := obs.NewCollector(1)
	runChunkPin(3, engine.ChunkConfig{}, nil, off)
	for _, s := range off.Spans() {
		if s.Chunks != 0 {
			t.Fatalf("request %d recorded %d chunks with chunking disabled", s.R.ID, s.Chunks)
		}
	}
	for _, r := range off.Rows() {
		if r.ChunkCount != 0 || r.ChunkTokens != 0 {
			t.Fatal("interval rollup recorded chunks with chunking disabled")
		}
	}
}

// TestSpeedAwareHeadroom unit-pins the per-flavor utilization targets
// derived from absolute service speed: the fastest flavor gets exactly the
// configured headroom (bit-identity on homogeneous fleets), slower flavors
// get strictly lower targets, monotone in speed, and the feature is inert
// when disabled.
func TestSpeedAwareHeadroom(t *testing.T) {
	p := &planner{cfg: PlannerConfig{Headroom: 0.8, SpeedAware: true}}
	if got := p.headroomFor(10, 10); got != 0.8 {
		t.Fatalf("fastest flavor target %v, want exactly the configured 0.8", got)
	}
	slow, slower := p.headroomFor(5, 10), p.headroomFor(2, 10)
	if !(slow < 0.8 && slow > 0) || !(slower < slow) {
		t.Fatalf("slower flavors must get strictly lower targets: %v, %v", slow, slower)
	}
	off := &planner{cfg: PlannerConfig{Headroom: 0.8}}
	if got := off.headroomFor(2, 10); got != 0.8 {
		t.Fatalf("disabled speed-aware target %v, want 0.8", got)
	}
}

// TestSpeedAwareHomogeneousIdentical pins the satellite's bit-identity
// clause at the fleet level: on a homogeneous pool, enabling speed-aware
// targets changes no plan and no outcome — every flavor is the fastest
// flavor, so every target collapses to the configured headroom exactly.
func TestSpeedAwareHomogeneousIdentical(t *testing.T) {
	run := func(speedAware bool) (string, string) {
		sla := metrics.SLA{TTFT: 6, MTPOT: 1.5}
		c := MustNewCluster(ClusterConfig{
			Pools: []Config{{
				Replicas: replicas(4, 40_000),
				Policy:   FutureHeadroom,
				Planner: &PlannerConfig{
					SLA: sla, Min: 1, Max: 4, Interval: 5,
					Predictor: HoltPredictor, ActivationDelay: 1,
					Headroom: 0.7, SpeedAware: speedAware,
				},
			}},
		})
		results := c.Serve(poissonReqs(300, 50, 7), 1e9)
		plans := ""
		for _, s := range c.Pool(0).PlanHistory() {
			plans += fmt.Sprintf("@%.3f target=%d active=%d targets=%v\n", s.At, s.Target, s.Active, s.Targets)
		}
		return plans, fmt.Sprintf("%+v", c.Report(results, sla))
	}
	plansOn, repOn := run(true)
	plansOff, repOff := run(false)
	if plansOn != plansOff {
		t.Fatalf("homogeneous plans differ with speed-aware targets:\non:  %s\noff: %s", plansOn, plansOff)
	}
	if repOn != repOff {
		t.Fatalf("homogeneous reports differ with speed-aware targets:\non:  %s\noff: %s", repOn, repOff)
	}
}
