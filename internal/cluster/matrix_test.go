package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// The feature matrix serves combinations of the cluster's features and holds
// every one to the same checks (checkCell): conservation of arrivals, empty
// and consistent KV pools, an untraced run equal to a traced one whose
// exports balance, and, for every feature a cell leaves off, an armed but
// idle form of it that decides exactly as the cell does. The cells cover
// every pair of factor values, which TestFeatureMatrix asserts of its own
// table, so no two features are only ever tested apart.

// faultMode is the matrix's fault factor.
type faultMode int

const (
	faultsOff     faultMode = iota
	faultsRecover           // the storm; orphans re-enter, failed transfers retry
	faultsLost              // the storm; orphans and failed transfers are lost
	nFaultModes
)

// cellShape sizes a cell: its traffic, its SLA, its replicas' KV capacity
// per pool role, and the wire its storm fails.
type cellShape struct {
	sla                    metrics.SLA
	base                   workload.Generator // the sessions' fresh-text lengths
	plain                  bool               // base's own requests: no sessions, no prefix hashes
	n                      int
	rate                   float64
	mixed, prefill, decode int
	offload                int     // the prefix cache's host store: 0 none, -1 unbounded
	affinity, slack        float64 // the entry pool's AffinityWeight, admission's Slack
	linkFail               float64 // the storm's background rate of failed deliveries
	salted                 bool    // the storm's wire draws from a salted seed
	oneToken               int     // every oneToken-th request outputs a single token; 0 none
}

var (
	// seamSLA is the SLA of the seam shapes.
	seamSLA = metrics.SLA{TTFT: 6, MTPOT: 1.5}
	// seamShape is every cell's shape unless it names another: the seam's
	// pools with a larger decode pool and a fifth of its load, so that most
	// arrivals complete with every feature on.
	seamShape = &cellShape{sla: seamSLA, base: workload.ShareGPT, n: 200, rate: 12,
		mixed: 20_000, prefill: 20_000, decode: 16_000, linkFail: 0.05, affinity: 0.35, slack: 0.5}
	// kneeShape is the disaggregated admission-and-planner seam as its
	// scenarios were chosen: 350 plain ShareGPT requests at 60/s on
	// 12k-token decode replicas, past the knee, where admission sheds and
	// the decode replicas' coasted runs end at refused admission rounds.
	kneeShape = &cellShape{sla: seamSLA, base: workload.ShareGPT, plain: true, n: 350, rate: 60,
		mixed: 20_000, prefill: 20_000, decode: 12_000, linkFail: 0.02, affinity: 0.35, slack: 0.5}
	// kneeSessionShape is kneeShape's load as session traffic, under the
	// salted storm of a flakier wire.
	kneeSessionShape = &cellShape{sla: seamSLA, base: workload.ShareGPT, n: 350, rate: 60,
		mixed: 20_000, prefill: 20_000, decode: 12_000, linkFail: 0.08, salted: true, affinity: 0.35, slack: 0.5}
	// longShape is the long-context shape chunked prefill exists for: 10%
	// of the prompts are 16k–64k documents.
	longShape = &cellShape{sla: metrics.SLA{TTFT: 20, MTPOT: 1.5}, base: workload.LongCtxMix(0.10), plain: true, n: 220, rate: 30,
		mixed: 80_000, prefill: 80_000, decode: 70_000, linkFail: 0.08, salted: true, affinity: 0.35, slack: 0.5}
	// oneTokenShape is seamShape with every eighth request answered in a
	// single token: on a disaggregated cell it finishes with its prefill, on
	// the prefill replica, and never reaches the link.
	oneTokenShape = &cellShape{sla: seamSLA, base: workload.ShareGPT, n: 200, rate: 12,
		mixed: 20_000, prefill: 20_000, decode: 16_000, linkFail: 0.05, affinity: 0.35, slack: 0.5, oneToken: 8}
	// cachedShape fills small pools with reclaimable prefix blocks, so a
	// run of coasted steps can end on the last physically free block and
	// the step after it take a cached one, and evicted prefixes spill to an
	// unbounded host store.
	cachedShape = &cellShape{sla: metrics.SLA{TTFT: 5, MTPOT: 1.5}, base: workload.ShareGPT, n: 300, rate: 60,
		mixed: 8_000, prefill: 8_000, decode: 8_000, offload: -1, affinity: 0.3}
)

// matrixCell is one combination of the cluster's features.
type matrixCell struct {
	name                                          string
	disagg, hetero, admit, prefix, chunk, planner bool
	faults                                        faultMode
	shape                                         *cellShape // nil: seamShape

	// The inert forms of the features the cell leaves off (twins).
	armed, stripped, speedAware bool
}

// matrixCells is the matrix's table. The cells named after a former
// scenario keep that scenario's features and shape.
func matrixCells() []matrixCell {
	return []matrixCell{
		{name: "all-off"},
		{name: "all-on", disagg: true, hetero: true, admit: true, faults: faultsRecover, prefix: true, chunk: true, planner: true},
		{name: "seam", disagg: true, admit: true, planner: true, shape: kneeShape},
		{name: "seam-storm", disagg: true, admit: true, faults: faultsRecover, planner: true, shape: kneeShape},
		{name: "prefix-storm", disagg: true, admit: true, faults: faultsRecover, planner: true, shape: kneeSessionShape},
		{name: "seam-lost", disagg: true, admit: true, faults: faultsLost, shape: oneTokenShape},
		{name: "chunked-storm", disagg: true, admit: true, faults: faultsRecover, chunk: true, shape: longShape},
		{name: "prefix-cache-crashes", admit: true, faults: faultsRecover, prefix: true, shape: cachedShape},
		{name: "disagg-open", disagg: true, hetero: true, prefix: true},
		{name: "hetero-lost", disagg: true, hetero: true, admit: true, faults: faultsLost, prefix: true, chunk: true, planner: true},
		{name: "mono-lost", hetero: true, faults: faultsLost, chunk: true, planner: true},
		{name: "mono-recover", hetero: true, faults: faultsRecover, planner: true},
		{name: "hetero-planner", hetero: true, prefix: true, chunk: true, planner: true},
	}
}

// factors lists the cell's factor values in a fixed order, and factorLevels
// how many values each factor takes.
func (mc matrixCell) factors() []int {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return []int{b(mc.disagg), b(mc.hetero), b(mc.admit), int(mc.faults), b(mc.prefix), b(mc.chunk), b(mc.planner)}
}

var (
	factorNames  = []string{"disagg", "hetero", "admit", "faults", "prefix", "chunk", "planner"}
	factorLevels = []int{2, 2, 2, int(nFaultModes), 2, 2, 2}
)

func (mc matrixCell) shapeOf() *cellShape {
	if mc.shape != nil {
		return mc.shape
	}
	return seamShape
}

// twins returns the cell's inert forms, one per feature it leaves off that
// has one: an empty fault subsystem, session traffic without its prefix
// hashes, and speed-aware planning on a single flavor.
func (mc matrixCell) twins() []matrixCell {
	var out []matrixCell
	if mc.faults == faultsOff {
		tw := mc
		tw.name, tw.armed = mc.name+"+armed-faults", true
		out = append(out, tw)
	}
	if !mc.prefix && !mc.shapeOf().plain {
		tw := mc
		tw.name, tw.stripped = mc.name+"+stripped-hashes", true
		out = append(out, tw)
	}
	if !mc.hetero && mc.planner {
		tw := mc
		tw.name, tw.speedAware = mc.name+"+speed-aware", true
		out = append(out, tw)
	}
	return out
}

// build turns the cell into a cluster and its arrivals. tr logs the routing;
// rec, if not nil, records the run.
func (mc matrixCell) build(seed uint64, rec obs.Recorder, tr *decisionTrace) (*Cluster, []*request.Request) {
	sh := mc.shapeOf()
	var pools []Config
	if mc.disagg {
		pools = []Config{
			{Role: engine.RolePrefillOnly, Replicas: mc.engines(engine.RolePrefillOnly, 2, sh.prefill, seed, tr)},
			{Role: engine.RoleDecodeOnly, Replicas: mc.engines(engine.RoleDecodeOnly, 3, sh.decode, seed, tr)},
		}
	} else {
		pools = []Config{{Replicas: mc.engines(engine.RoleMixed, 3, sh.mixed, seed, tr)}}
	}
	for i := range pools {
		pools[i].Policy = FutureHeadroom
		if mc.planner {
			pools[i].Planner = &PlannerConfig{
				SLA: sh.sla, Min: 1, Max: len(pools[i].Replicas), Interval: 5,
				Predictor: HoltPredictor, ActivationDelay: 1, SpeedAware: mc.speedAware,
			}
		}
	}
	pools[0].AffinityWeight = sh.affinity
	cfg := ClusterConfig{Pools: pools, Faults: mc.faultConfig(seed), Recorder: rec}
	if mc.disagg {
		cfg.Link = kv.MustNewLink(50e9, 0.002)
	}
	if mc.admit {
		cfg.Admission = &AdmissionConfig{TTFTBudget: sh.sla.TTFT, Shed: true, Slack: sh.slack}
	}
	var reqs []*request.Request
	if sh.plain {
		r := rng.New(seed)
		reqs = workload.Build(sh.base, r, sh.n, 1, 512)
		workload.AssignPoissonArrivals(reqs, r, sh.rate, 0)
	} else {
		reqs = sessionReqs(sh.base, sh.n, sh.rate, seed)
	}
	if mc.stripped {
		for _, r := range reqs {
			r.PrefixHashes, r.SessionID, r.Turn = nil, 0, 0
		}
	}
	if k := sh.oneToken; k > 0 {
		for i := k - 1; i < len(reqs); i += k {
			reqs[i].TrueOutputLen = 1
		}
	}
	return tr.traced(MustNewCluster(cfg)), reqs
}

// engines builds one pool's replicas. A prefill replica admits on current
// usage (its requests leave at the end of their own prefill, so there is no
// future peak to reserve for); the others run Past-Future. On a mixed-GPU
// cell the last replica of each pool is an A30.
func (mc matrixCell) engines(role engine.Role, n, capacity int, seed uint64, tr *decisionTrace) []*engine.Engine {
	sh := mc.shapeOf()
	fast, slow := testPerf(), perfFor(hw.A30)
	out := make([]*engine.Engine, n)
	for i := range out {
		cfg := engine.Config{Perf: fast, Role: role, CapacityOverride: capacity}
		if mc.hetero && i == n-1 {
			cfg.Perf = slow
		}
		var probe *kneeProbe
		if role == engine.RolePrefillOnly {
			cfg.Scheduler = core.MustNewAggressive(0.95)
		} else {
			probe = &kneeProbe{Scheduler: core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(seed + uint64(i))}),
				count: &tr.kneeRounds}
			cfg.Scheduler = probe
		}
		if role != engine.RoleDecodeOnly && mc.chunk {
			cfg.MaxPrefillTokens = 2048
			cfg.Chunked = engine.ChunkConfig{Enabled: true, Policy: engine.ChunkSLOAware, ChunkTokens: 512}
		}
		if role != engine.RoleDecodeOnly && mc.prefix {
			cfg.PrefixCache = engine.PrefixCacheConfig{Enabled: true, BlockTokens: 64, OffloadCapacityTokens: sh.offload}
		}
		out[i] = engine.MustNew(cfg)
		if probe != nil {
			probe.pool = out[i].Pool()
		}
	}
	return out
}

// kneeProbe passes a Past-Future replica's admission rounds through and
// counts each one it refuses while the engine still owes its batch the KV
// of coasted steps: a run of coasted steps that ends at a refused round. The
// view counts the owed growth; the pool, read directly, does not yet.
type kneeProbe struct {
	core.Scheduler
	pool  *kv.Pool
	count *int
}

func (k *kneeProbe) Admit(v *core.View, queue []*request.Request) int {
	n := k.Scheduler.Admit(v, queue)
	if n == 0 && v.UsedTokens != k.pool.UsedTokens() {
		*k.count++
	}
	return n
}

// faultConfig is the cell's fault subsystem: none, the empty one of the
// armed twin, or the storm with or without recovery.
func (mc matrixCell) faultConfig(seed uint64) *FaultConfig {
	if mc.faults == faultsOff {
		if mc.armed {
			return &FaultConfig{Recover: true}
		}
		return nil
	}
	sch := monoStorm(seed)
	if mc.disagg {
		sch = stormSchedule(seed)
	}
	sh, wire := mc.shapeOf(), seed
	if sh.salted {
		wire ^= 0x9e37
	}
	return &FaultConfig{Schedule: sch, Recover: mc.faults == faultsRecover, LinkFailRate: sh.linkFail, Seed: wire}
}

// chaosSeeds returns the matrix's seed set: 1..5 by default, 1..N when
// CHAOS_SEEDS=N (the `make chaos` widening knob).
func chaosSeeds(t *testing.T) []uint64 {
	n := 5
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad CHAOS_SEEDS %q", s)
		}
		n = v
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// stormSchedule is the storm of a disaggregated cell: scripted crashes in
// every lifecycle window faults can interrupt — mid-prefill (t=0.5),
// mid-decode and mid-transfer (t=1.0), while admission holds work (t=2.5,
// which also opens an every-decode-replica-down span until 3.0) — plus
// scripted wire failures, a slowdown, and a seeded stochastic crash storm on
// the decode pool.
func stormSchedule(seed uint64) faults.Script {
	s := faults.Script{
		{At: 0.5, Kind: faults.Crash, Pool: 0, Replica: 0, Duration: 1.5},
		{At: 0.8, Kind: faults.LinkFailure, Count: 3},
		{At: 1.0, Kind: faults.Crash, Pool: 1, Replica: 0, Duration: 2},
		{At: 2.5, Kind: faults.Crash, Pool: 1, Replica: 1, Duration: 1.5},
		{At: 3.0, Kind: faults.LinkFailure, Count: 2},
		{At: 4.0, Kind: faults.Slowdown, Pool: 1, Replica: 0, Duration: 2, Factor: 1.8},
	}
	return append(s, faults.Generate(rng.New(seed), 1, 2, 4, 1, 8)...)
}

// monoStorm is the storm of a monolithic cell: two scripted crashes that
// overlap from 1.5 to 2.0, and a seeded stochastic crash storm over all
// three replicas.
func monoStorm(seed uint64) faults.Script {
	s := faults.Script{
		{At: 0.5, Kind: faults.Crash, Pool: 0, Replica: 0, Duration: 1.5},
		{At: 1.5, Kind: faults.Crash, Pool: 0, Replica: 2, Duration: 1},
	}
	return append(s, faults.Generate(rng.New(seed), 0, 3, 4, 1, 8)...)
}

// downSpan is one replica's down span [from, to].
type downSpan struct{ from, to float64 }

// downWindows replays a schedule's crash faults through the cluster's
// overlap rule (a crash landing during an open repair span is a no-op) and
// returns each pool-replica's actual down spans.
func downWindows(s faults.Script) map[[2]int][]downSpan {
	wins := map[[2]int][]downSpan{}
	up := map[[2]int]float64{}
	for _, f := range faults.Sorted(s) {
		if f.Kind != faults.Crash {
			continue
		}
		key := [2]int{f.Pool, f.Replica}
		if f.At < up[key] {
			continue // replica already down: overlapping crash is a no-op
		}
		wins[key] = append(wins[key], downSpan{from: f.At, to: f.At + f.Duration})
		up[key] = f.At + f.Duration
	}
	return wins
}

// sessionReqs builds multi-turn conversation traffic over base: shared
// system prompts, growing per-turn histories, prefix hashes attached.
func sessionReqs(base workload.Generator, n int, rate float64, seed uint64) []*request.Request {
	gen, err := workload.NewSessions(workload.SessionsConfig{
		Base:               base,
		BlockTokens:        64,
		SystemPromptTokens: 256,
		SharedSystemRatio:  0.7,
		TurnProb:           0.6,
		MaxTurns:           6,
		MaxInputTokens:     3000,
	})
	if err != nil {
		panic(err)
	}
	r := rng.New(seed)
	reqs := workload.Build(gen, r, n, 1, 512)
	workload.AssignPoissonArrivals(reqs, r, rate, 0)
	return reqs
}

// decisionTrace records every decision of a served cluster: routing picks
// per pool, plan targets, shed identities and times, handoff bookings and the
// rolled-up report. kneeRounds counts, beside them, the admission rounds
// refused at the end of a run of coasted steps (kneeProbe).
type decisionTrace struct {
	routes     []string
	plans      []string
	sheds      []string
	handoffs   []string
	report     string
	kneeRounds int
}

// traced makes every pool of c log its routing decisions into tr.
func (tr *decisionTrace) traced(c *Cluster) *Cluster {
	for i, p := range c.pools {
		i := i
		p.onRoute = func(r *request.Request, rep int) {
			tr.routes = append(tr.routes, fmt.Sprintf("p%d r%d req%d", i, rep, r.ID))
		}
	}
	return c
}

// collect records what a served cluster decided besides routing.
func (tr *decisionTrace) collect(c *Cluster, results []*engine.Result, sla metrics.SLA) {
	for _, s := range c.ShedRequests() {
		tr.sheds = append(tr.sheds, fmt.Sprintf("req%d@%.9f", s.ID, s.EndedAt))
	}
	for _, h := range c.Handoffs() {
		tr.handoffs = append(tr.handoffs, fmt.Sprintf("req%d %d->%d @%.9f", h.Req.ID, h.FromReplica, h.ToReplica, h.DeliveredAt))
	}
	for pi := 0; pi < c.NumPools(); pi++ {
		for _, s := range c.Pool(pi).PlanHistory() {
			tr.plans = append(tr.plans, fmt.Sprintf("p%d @%.3f target=%d active=%d targets=%v", pi, s.At, s.Target, s.Active, s.Targets))
		}
	}
	tr.report = fmt.Sprintf("%+v", c.Report(results, sla))
}

// compareTraces fails the test on the first field where two decision
// traces diverge.
func compareTraces(t *testing.T, label string, got, want decisionTrace) {
	t.Helper()
	compare := func(kind string, g, w []string) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s counts differ: got %d, reference %d", label, kind, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: %s %d differs:\ngot:       %s\nreference: %s", label, kind, i, g[i], w[i])
			}
		}
	}
	compare("route", got.routes, want.routes)
	compare("plan", got.plans, want.plans)
	compare("shed", got.sheds, want.sheds)
	compare("handoff", got.handoffs, want.handoffs)
	if got.report != want.report {
		t.Fatalf("%s: reports differ:\ngot:       %s\nreference: %s", label, got.report, want.report)
	}
}

// served is one serve of a cell.
type served struct {
	c       *Cluster
	reqs    []*request.Request
	results []*engine.Result
	trace   decisionTrace
}

func serveCell(mc matrixCell, seed uint64, rec obs.Recorder) served {
	var s served
	s.c, s.reqs = mc.build(seed, rec, &s.trace)
	s.results = s.c.Serve(s.reqs, 1e9)
	s.trace.collect(s.c, s.results, mc.shapeOf().sla)
	return s
}

// bite counts, over the whole sweep, what each feature did: a feature that
// never shows its effect leaves its checks vacuous. biteKeys lists every
// count the sweep must see.
type bite map[string]int64

var biteKeys = []string{
	"cache hits", "cache evictions", "cache blocks dropped by a crash", // prefix cache
	"prefill chunks", "chunked iterations", "span chunks", "rollup chunks", "rollup chunk tokens", // chunking
	"crashes", "orphans", "recoveries", "link retries", "losses", "closed repair spans", // faults
	"rollup crashes", "rollup recoveries", "rollup transfer failures", "spans of retried requests",
	"sheds", "spans of shed requests", // admission
	"handoffs", "single-token finishes on a prefill replica", // disaggregation
}

// checkCell serves one cell at one seed untraced, traced and as each of its
// inert twins, and checks every run.
func checkCell(t *testing.T, mc matrixCell, seed uint64, b bite) {
	plain := serveCell(mc, seed, nil)
	checkServed(t, mc, plain, b)

	// Neither a recorder nor an inert feature may change a decision, or
	// push a heap event.
	same := func(label string, s served) {
		t.Helper()
		compareTraces(t, label, s.trace, plain.trace)
		if got, want := s.c.EventsProcessed(), plain.c.EventsProcessed(); got != want {
			t.Fatalf("%s: %d heap events, the plain run's %d", label, got, want)
		}
	}
	col := obs.NewCollector(1)
	traced := serveCell(mc, seed, col)
	same("traced", traced)
	checkTraced(t, mc, traced, col, b)
	if seed == 1 {
		// Encoding the export is most of a cell's cost: once per cell.
		checkPerfetto(t, mc, col)
	}

	for _, tw := range mc.twins() {
		same(tw.name, serveCell(tw, seed, nil))
	}
}

// checkEnded checks that every arrival ended in exactly one of the
// completed, shed and lost lists, with its list's outcome, that none was
// shed before it arrived, and that admission holds nothing. An arrival for
// which pending reports true may stay pending instead (pending may be nil).
func checkEnded(t *testing.T, s served, pending func(*request.Request) bool) (completed, lost []*request.Request) {
	t.Helper()
	for _, res := range s.results {
		completed = append(completed, res.Finished...)
		if len(res.Failed) != 0 || len(res.TimedOut) != 0 {
			t.Fatalf("%d failed and %d timed out in an engine", len(res.Failed), len(res.TimedOut))
		}
	}
	lost = s.c.LostRequests()
	ended := map[*request.Request]string{}
	for _, l := range []struct {
		name string
		rs   []*request.Request
		want request.Outcome
	}{
		{"completed", completed, request.OutcomeCompleted},
		{"shed", s.c.ShedRequests(), request.OutcomeShed},
		{"lost", lost, request.OutcomeFailed},
	} {
		for _, r := range l.rs {
			if prev, ok := ended[r]; ok {
				t.Fatalf("request %d ended %s and %s", r.ID, prev, l.name)
			}
			ended[r] = l.name
			if r.Outcome != l.want {
				t.Fatalf("%s request %d outcome %v", l.name, r.ID, r.Outcome)
			}
			if r.Outcome == request.OutcomeShed && !(r.EndedAt >= r.ArrivalTime) {
				t.Fatalf("request %d arrived at %v, shed at %v", r.ID, r.ArrivalTime, r.EndedAt)
			}
			if !(r.EndedAt >= 0) {
				t.Fatalf("%s request %d ended at %v", l.name, r.ID, r.EndedAt)
			}
		}
	}
	for _, r := range s.reqs {
		if _, ok := ended[r]; !ok && !(pending != nil && pending(r) && r.Outcome == request.OutcomePending) {
			t.Fatalf("arrival %d never ended (outcome %v)", r.ID, r.Outcome)
		}
		delete(ended, r)
	}
	if len(ended) != 0 {
		t.Fatalf("%d requests ended that never arrived", len(ended))
	}
	if n := s.c.HeldRequests(); n != 0 {
		t.Fatalf("%d requests still held after Serve", n)
	}
	return completed, lost
}

// checkPools checks every replica's KV pool; a drained cluster's pools hold
// nothing.
func checkPools(t *testing.T, c *Cluster, drained bool) {
	t.Helper()
	for _, p := range c.pools {
		for i, r := range p.reps {
			pool := r.eng.Pool()
			if err := pool.CheckInvariants(); err != nil {
				t.Fatalf("pool %d replica %d: %v", p.id, i, err)
			}
			if used := pool.UsedTokens(); drained && used != 0 {
				t.Fatalf("pool %d replica %d holds %d tokens after Serve", p.id, i, used)
			}
		}
	}
}

// checkServed checks conservation, the KV pools and the feature-conditional
// properties of one untraced serve.
func checkServed(t *testing.T, mc matrixCell, s served, b bite) {
	t.Helper()
	c := s.c
	completed, lost := checkEnded(t, s, nil)
	checkPools(t, c, true)
	rep := c.Report(s.results, mc.shapeOf().sla)
	switch {
	case !mc.admit && len(c.ShedRequests()) != 0:
		t.Fatalf("%d sheds without admission", len(c.ShedRequests()))
	case mc.faults != faultsLost && len(lost) != 0:
		t.Fatalf("%d requests lost with faults %v", len(lost), mc.faults)
	case mc.faults == faultsLost && (rep.Summary.Lost != len(lost) || rep.Summary.Recovered != 0 || rep.Summary.TransferRetries != 0):
		t.Fatalf("without recovery: summary lost %d (want %d), recovered %d, transfer retries %d",
			rep.Summary.Lost, len(lost), rep.Summary.Recovered, rep.Summary.TransferRetries)
	case mc.faults == faultsOff && (rep.Summary.Crashes != 0 || rep.Summary.Orphaned != 0):
		t.Fatalf("fault-free run recorded %d crashes, %d orphans", rep.Summary.Crashes, rep.Summary.Orphaned)
	case c.CostSeconds() <= 0:
		t.Fatal("no provisioning cost recorded")
	}
	retried := 0
	for _, r := range completed {
		if r.Generated != r.TrueOutputLen {
			t.Fatalf("request %d completed with %d of %d tokens", r.ID, r.Generated, r.TrueOutputLen)
		}
		if r.Retries > 0 {
			retried++
		}
		if mc.disagg && r.TrueOutputLen == 1 {
			b["single-token finishes on a prefill replica"]++
		}
	}
	if rep.Summary.Recovered != retried {
		t.Fatalf("summary recovered %d, %d completed requests were retried", rep.Summary.Recovered, retried)
	}
	// Each recovered orphan and each re-prefill after a failed transfer
	// retries its request once.
	retries, want := 0, rep.Summary.RePrefills
	for _, r := range s.reqs {
		retries += r.Retries
	}
	if mc.faults == faultsRecover {
		want += rep.Summary.Orphaned
	}
	if retries != want {
		t.Fatalf("%d retries, want %d (orphans %d, re-prefills %d)", retries, want, rep.Summary.Orphaned, rep.Summary.RePrefills)
	}

	checkBilled(t, mc, c)

	// No tick plans after the run: every plan sample lies inside the span
	// Duration measures.
	for _, p := range c.pools {
		for _, ps := range p.PlanHistory() {
			if !(ps.At >= c.startAt && ps.At <= c.startAt+c.Duration()) {
				t.Fatalf("pool %d planned @%v, outside the run [%v, %v]", p.id, ps.At, c.startAt, c.startAt+c.Duration())
			}
		}
	}
	for _, p := range c.pools {
		if !mc.hetero || p.plan == nil {
			continue
		}
		for _, ps := range p.PlanHistory() {
			sum := 0
			for _, n := range ps.Targets {
				sum += n
			}
			if len(ps.Targets) != len(p.flavors) || sum != ps.Target {
				t.Fatalf("pool %d plan @%.3f: targets %v for %d flavors, want them to sum to %d",
					p.id, ps.At, ps.Targets, len(p.flavors), ps.Target)
			}
		}
	}
	if mc.faults != faultsOff {
		// Every crash the script lands takes its replica down, and no
		// transfer lands in its destination's down span.
		wins := downWindows(c.flt.cfg.Schedule)
		downs := 0
		for _, w := range wins {
			downs += len(w)
		}
		if rep.Summary.Crashes != downs {
			t.Fatalf("%d crashes, the script takes replicas down %d times", rep.Summary.Crashes, downs)
		}
		for _, h := range c.Handoffs() {
			if h.DeliveredAt < 0 || h.Req.DeliveredAt != h.DeliveredAt {
				continue // never delivered, or retried elsewhere later
			}
			for _, w := range wins[[2]int{1, h.ToReplica}] {
				if h.DeliveredAt > w.from && h.DeliveredAt <= w.to {
					t.Fatalf("request %d delivered at %v into decode replica %d's down span [%v, %v]",
						h.Req.ID, h.DeliveredAt, h.ToReplica, w.from, w.to)
				}
			}
		}
	}

	for _, res := range s.results {
		b["cache hits"] += res.CacheHitTokens
		b["cache evictions"] += res.PrefixCache.EvictedBlocks
		b["cache blocks dropped by a crash"] += res.PrefixCache.DroppedBlocks
		b["prefill chunks"] += res.PrefillChunks
		b["chunked iterations"] += int64(res.ChunkIters)
	}
	if rep.Summary.MeanTimeToRecover > 0 {
		b["closed repair spans"]++
	}
	b["crashes"] += int64(rep.Summary.Crashes)
	b["orphans"] += int64(rep.Summary.Orphaned)
	b["recoveries"] += int64(rep.Summary.Recovered)
	b["link retries"] += int64(rep.Summary.TransferRetries)
	b["losses"] += int64(len(lost))
	b["sheds"] += int64(len(c.ShedRequests()))
	b["handoffs"] += int64(len(c.Handoffs()))
}

// checkBilled checks that replica-seconds are conserved: each replica's
// lie in [0, Duration], ReplicaSeconds and CostSeconds are their plain and
// cost-weighted sums, and on a cell no planner scales every replica is
// billed for the whole run less its down time inside it — the script's
// crashes merged as crashReplica merges them.
func checkBilled(t *testing.T, mc matrixCell, c *Cluster) {
	t.Helper()
	var wins map[[2]int][]downSpan
	if c.flt != nil {
		wins = downWindows(c.flt.cfg.Schedule)
	}
	dur, sum, cost := c.Duration(), 0.0, 0.0
	for _, p := range c.pools {
		for _, r := range p.reps {
			secs := r.billedSecs(c.startAt, c.endAt)
			if !(secs >= 0 && secs <= dur) {
				t.Fatalf("pool %d replica %d billed %v s in a %v s run", p.id, r.idx, secs, dur)
			}
			sum += secs
			cost += secs * r.flv.cost
			if mc.planner {
				continue
			}
			want := dur
			for _, w := range wins[[2]int{p.id, r.idx}] {
				want -= max(min(w.to, c.endAt)-max(w.from, c.startAt), 0)
			}
			if math.Abs(secs-want) > 1e-9 {
				t.Fatalf("pool %d replica %d billed %v s, want the run's %v s less its down time: %v s",
					p.id, r.idx, secs, dur, want)
			}
		}
	}
	if math.Abs(c.ReplicaSeconds()-sum) > 1e-9 || math.Abs(c.CostSeconds()-cost) > 1e-9 {
		t.Fatalf("replica-seconds %v and cost-seconds %v, the replicas' sums %v and %v",
			c.ReplicaSeconds(), c.CostSeconds(), sum, cost)
	}
}

// checkTraced checks a traced serve's exports: the TTFT decomposition, the
// span CSV round trip, and a rollup that counts every chunk and crash the
// run made.
func checkTraced(t *testing.T, mc matrixCell, s served, col *obs.Collector, b bite) {
	t.Helper()
	if err := col.CheckDecomposition(1e-6); err != nil {
		t.Fatal(err)
	}
	spans := col.Spans()
	if len(spans) != len(s.reqs) {
		t.Fatalf("%d spans for %d arrivals", len(spans), len(s.reqs))
	}
	spanChunks := 0
	for _, sp := range spans {
		spanChunks += sp.Chunks
		if sp.R.Retries > 0 {
			b["spans of retried requests"]++
		}
		if sp.ShedWhere != "" {
			b["spans of shed requests"]++
		}
	}
	var csv bytes.Buffer
	if err := col.WriteSpanCSV(&csv); err != nil {
		t.Fatal(err)
	}
	rows, err := obs.ReadSpanCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	csvChunks := 0
	for _, r := range rows {
		csvChunks += r.Chunks
		if d := r.StageSum() - r.TTFT; r.TTFT >= 0 && r.Retries == 0 && (d > 1e-6 || d < -1e-6) {
			t.Fatalf("request %d: CSV stage sum %.9f != ttft %.9f", r.ID, r.StageSum(), r.TTFT)
		}
	}
	if len(rows) != len(spans) || csvChunks != spanChunks {
		t.Fatalf("span CSV round trip: %d rows with %d chunks, %d spans with %d", len(rows), csvChunks, len(spans), spanChunks)
	}
	b["span chunks"] += int64(spanChunks)
	var chunks, rowChunks, crashes int64
	for _, res := range s.results {
		chunks += res.PrefillChunks
	}
	for _, r := range col.Rows() {
		rowChunks += int64(r.ChunkCount)
		crashes += int64(r.Crashes)
		b["rollup chunk tokens"] += r.ChunkTokens
		b["rollup recoveries"] += int64(r.Recoveries)
		b["rollup transfer failures"] += int64(r.XferFails)
	}
	if rep := s.c.Report(s.results, mc.shapeOf().sla); rowChunks != chunks || crashes != int64(rep.Summary.Crashes) {
		t.Fatalf("rollup counts %d chunks and %d crashes, the run made %d and %d", rowChunks, crashes, chunks, rep.Summary.Crashes)
	}
	b["rollup chunks"] += rowChunks
	b["rollup crashes"] += crashes
	if !mc.chunk && int64(spanChunks)+rowChunks != 0 {
		t.Fatalf("%d span and %d rollup chunks with chunking off", spanChunks, rowChunks)
	}
}

// checkPerfetto checks that the Perfetto export is JSON with the events the
// cell's features make.
func checkPerfetto(t *testing.T, mc matrixCell, col *obs.Collector) {
	t.Helper()
	var trace bytes.Buffer
	if err := col.WritePerfetto(&trace); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(trace.Bytes()) {
		t.Fatal("Perfetto export is not valid JSON")
	}
	want := []string{"M", "X"}
	if mc.disagg {
		want = append(want, "s", "f")
	}
	if mc.faults != faultsOff {
		want = append(want, "i")
	}
	for _, ph := range want {
		if !bytes.Contains(trace.Bytes(), []byte(`"ph":"`+ph+`"`)) {
			t.Fatalf("Perfetto export lacks ph=%q events", ph)
		}
	}
}

// checkPairwise fails unless the table covers every pair of factors in
// every combination of their values, and holds an all-off and an all-on
// cell.
func checkPairwise(t *testing.T, cells []matrixCell) {
	t.Helper()
	seen := map[[4]int]bool{}
	allOff, allOn := false, false
	for _, mc := range cells {
		v := mc.factors()
		off, on := true, true
		for i := range v {
			off = off && v[i] == 0
			on = on && v[i] == 1 // faultsRecover is the fault factor's "on"
			for j := i + 1; j < len(v); j++ {
				seen[[4]int{i, v[i], j, v[j]}] = true
			}
		}
		allOff, allOn = allOff || off, allOn || on
	}
	if !allOff || !allOn {
		t.Errorf("table lacks an all-off (%v) or an all-on (%v) cell", allOff, allOn)
	}
	for i := range factorLevels {
		for j := i + 1; j < len(factorLevels); j++ {
			for a := 0; a < factorLevels[i]; a++ {
				for bv := 0; bv < factorLevels[j]; bv++ {
					if !seen[[4]int{i, a, j, bv}] {
						t.Errorf("no cell has %s=%d with %s=%d", factorNames[i], a, factorNames[j], bv)
					}
				}
			}
		}
	}
}

// TestFeatureMatrix serves every cell of the table at every chaos seed
// (CHAOS_SEEDS) and holds it to checkCell; over the whole sweep each feature
// must show its effect.
func TestFeatureMatrix(t *testing.T) {
	cells := matrixCells()
	checkPairwise(t, cells)
	var mu sync.Mutex
	total := bite{}
	t.Run("cells", func(t *testing.T) {
		for _, mc := range cells {
			for _, seed := range chaosSeeds(t) {
				mc, seed := mc, seed
				t.Run(fmt.Sprintf("%s/seed=%d", mc.name, seed), func(t *testing.T) {
					t.Parallel()
					b := bite{}
					checkCell(t, mc, seed, b)
					mu.Lock()
					defer mu.Unlock()
					for k, n := range b {
						total[k] += n
					}
				})
			}
		}
	})
	if t.Failed() {
		return
	}
	for _, k := range biteKeys {
		if total[k] == 0 {
			t.Errorf("the sweep recorded no %s", k)
		}
	}
}
