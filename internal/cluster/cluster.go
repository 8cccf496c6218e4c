// Package cluster is the fleet layer between the serving engine and the
// world: an event-driven multi-replica simulator with predictive,
// SLA-driven autoscaling — the paper's §7 future-work proposal (routing by
// predicted future memory demand) grown into a real subsystem.
//
// The layer is built from role-aware pools. A Pool owns replicas that all
// execute one serving phase (engine.RoleMixed, RolePrefillOnly,
// RoleDecodeOnly) behind a routing policy and an optional autoscaler; a
// Cluster composes pools behind a single event min-heap (replica engine
// steps, replica activations, autoscaler ticks, KV-handoff deliveries) so
// every pool shares one simulated clock. Two topologies are supported:
//
//   - Monolithic: one RoleMixed pool. This is the PR 2 fleet, unchanged —
//     Fleet is now a thin wrapper over this degenerate cluster.
//   - Disaggregated (Dynamo/DistServe/Splitwise-style): a prefill pool and
//     a decode pool behind a two-stage router. Arrivals take a
//     FutureHeadroom (or RR/least-loaded) pick in the prefill pool; a
//     prefill-only engine completes the request at its first token and
//     hands it off; the KV cache crosses a kv.Link (bandwidth + latency +
//     optional serialization, so the handoff is simulated, not free); on
//     delivery the request takes a second FutureHeadroom pick in the
//     decode pool and is admitted through engine.SubmitMigrated with its
//     KV footprint pre-seeded.
//
// Routing probes go through one warm core.PeakEstimator per replica — no
// per-probe clone+sort, no per-probe allocations. What a probe counts is
// everything the router has put on the replica: the running batch, the FCFS
// queue, and the requests placed since the replica's last step, which still
// sit in its engine's arrival heap (engine.WaitingLen is queue +
// placed-not-yet-queued; the LeastLoaded policy and the reactive
// autoscaler's load signal count the same set). A placement is therefore
// visible to the very next probe, also one for an arrival at the same
// instant, and keeping it visible costs one splice: a placement pushes its
// single entry into the sorted estimator (Pool.placed). What a probe does
// not count is KV still in transit: a handoff booked on the link toward a
// decode replica (replica.pendingIn) becomes visible when it is delivered,
// not when it is booked — measured neutral on the full-feature workload, see
// ROADMAP.
//
// An estimator outlives its replica's pure decode steps
// (engine.PureDecodeLastStep — most steps of a busy replica). Eq. 2–4's M* is a maximum
// over future time points, and such a step only moves the replica along its
// own time axis, so an estimator built k steps ago, asked about the
// candidate shifted k steps back, answers at most what a rebuild would
// (Pool.probeBound) — and an argmin needs no more than that of every replica
// but the one it returns. The FutureHeadroom pick, the admission gate
// (Pool.bestProbe) and the decode pick (Cluster.pickDecode) sweep over those
// bounds and rebuild only the replica the sweep ends on; any other step, and
// a crash, invalidates the estimator as before (replica.moved). Every
// decision is the exact sweep's, bit for bit: TestLaggedBoundIsSound,
// TestFutureHeadroomDecisionsGolden. Between steps a probe costs two
// compares: the estimator's two candidate-independent terms are kept per
// replica (core.PeakTerms).
//
// Autoscaling is per pool: the threshold-reactive
// high/low-water policy, or the predictive SLA planner (PlannerConfig)
// that forecasts load and scales straight to the replica count whose
// interpolated latency meets the targets — TTFT sizes a prefill pool,
// TPOT sizes a decode pool, both size a mixed pool.
//
// With AdmissionConfig the arrival path becomes a cluster-front admission
// pipeline (admission.go): arrivals the probes cannot place are held in a
// deadline-indexed global EDF queue, released on capacity events (replica
// steps that freed a request, activations, KV deliveries, autoscaler
// moves) instead of per-tick polling, and shed — request.OutcomeShed —
// once their remaining TTFT budget cannot cover the predicted prefill +
// transfer floor. Handoffs whose expected delivery already overruns the
// deadline are dropped at the prefill→transfer boundary, before any link
// bandwidth is booked.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
)

// Handoff records one prefill→decode KV migration, complete after its
// delivery event fired.
type Handoff struct {
	// Req is the migrating request.
	Req *request.Request
	// FromReplica / ToReplica are pool-local replica indexes (prefill pool
	// source, decode pool destination; To is -1 until delivered).
	FromReplica, ToReplica int
	// PrefillDoneAt is when the prefill engine emitted the handoff;
	// DeliveredAt is when the transfer landed on the decode side. The
	// difference is the simulated transfer delay (queueing included).
	PrefillDoneAt, DeliveredAt float64
	// Retries counts failed deliveries of this handoff that were re-booked
	// on the link (fault injection); 0 on a healthy wire.
	Retries int

	// bytes is the booked transfer size, kept for fault-injected re-bookings.
	bytes int64
}

// handoffChunk is the number of records in one chunk of a handoffLog.
const handoffChunk = 512

// handoffLog is the append-only record of issued handoffs, kept in
// fixed-size chunks. Events carry a record's index and handlers hold its
// address across later appends, so records never move; and the bytes the
// log allocates grow with the count one chunk at a time, not in the
// ever-larger copies of a growing slice (a fifth of a disaggregated
// replay's allocated bytes, the last copy alone 4 MB).
type handoffLog struct {
	chunks [][]Handoff
	n      int
}

// add appends h and returns its index.
func (l *handoffLog) add(h Handoff) int {
	if l.n == len(l.chunks)*handoffChunk {
		l.chunks = append(l.chunks, make([]Handoff, 0, handoffChunk))
	}
	last := len(l.chunks) - 1
	l.chunks[last] = append(l.chunks[last], h)
	l.n++
	return l.n - 1
}

// at returns the i-th record.
func (l *handoffLog) at(i int) *Handoff {
	return &l.chunks[i/handoffChunk][i%handoffChunk]
}

// ClusterConfig configures a Cluster.
type ClusterConfig struct {
	// Pools composes the cluster. Exactly one RoleMixed pool (monolithic),
	// or exactly two pools — RolePrefillOnly then RoleDecodeOnly
	// (disaggregated).
	Pools []Config
	// Link models the prefill→decode KV transfer path. nil makes handoffs
	// instantaneous (a modeling upper bound). Ignored for monolithic
	// clusters.
	Link *kv.Link
	// Admission enables cluster-front admission control: arrivals the
	// FutureHeadroom probe cannot place now are held in a deadline-indexed
	// global queue (EDF over TTFT deadlines), released on capacity events,
	// and — with shedding — refused once their remaining budget cannot
	// cover the predicted service floor. nil routes every arrival
	// immediately (the pre-admission behavior).
	Admission *AdmissionConfig
	// OnHandoff, when non-nil, observes every completed KV migration at its
	// delivery time.
	OnHandoff func(h Handoff)
	// Faults enables deterministic fault injection and recovery (faults.go).
	// nil — or an empty schedule — leaves the cluster bit-identical to the
	// pre-fault path.
	Faults *FaultConfig
	// Recorder, when non-nil, receives the full request-lifecycle event
	// stream (internal/obs): arrivals, admission holds/releases/sheds,
	// placements, engine iterations, KV-transfer bookings and deliveries,
	// faults, planner decisions. A strict observer — it is sampled at
	// execution points the simulator already visits and never pushes heap
	// events — so recorded runs make bit-identical decisions to unrecorded
	// ones. nil disables every emission site at zero cost.
	Recorder obs.Recorder
	// Workers selects the simulation core. 0 (the default) is the
	// single-threaded reference event loop, unchanged. Any positive value
	// switches to the conservatively batched core (parallel.go): engine
	// steps that provably cannot influence one another run as a batch —
	// concurrently on Workers goroutines when Workers ≥ 2, inline when
	// Workers == 1 (same machinery, no goroutines: the coordination-overhead
	// baseline) — with their cluster-visible effects replayed in event-pop
	// order. Results are bit-identical to the reference for every Workers
	// value. Requires each replica to own its engine and scheduler outright
	// (validated), and every hook to be installed before NewCluster (hooks
	// added later would fire on worker goroutines).
	Workers int
}

// Cluster composes role-aware pools behind one event min-heap — the single
// clock every pool shares — and the two-stage disaggregated router.
type Cluster struct {
	cfg   ClusterConfig
	pools []*Pool

	events eventHeap
	evSeq  int64

	entry  int // pool receiving external arrivals
	decode int // pool receiving KV deliveries (== entry when monolithic)

	link *kv.Link
	// minKVBytesPerToken is the smallest per-token KV footprint across the
	// entry pool's flavors — the optimistic transfer size the admission
	// floor prices (a request is only refused when *no* flavor could make
	// its deadline). Actual bookings size by the source replica's own model.
	minKVBytesPerToken int64
	handoffs           handoffLog

	adm *admission
	flt *faultState

	rec obs.Recorder
	// lastBook captures the most recent link booking (wire start after lane
	// queueing, completion) between ScheduleTo and the XferBook emission —
	// the kv package reports timing through Link.OnSchedule without knowing
	// about the recorder.
	lastBook struct {
		start, done float64
		ok          bool
	}

	started bool
	startAt float64
	endAt   float64

	// Parallel-core state (parallel.go). workers == 0 on the reference path.
	workers      int
	runner       *stepRunner
	batch        []stepEntry
	popped       int64 // events handled, the bench's events/sec numerator
	batches      int64 // step batches formed (parallel core only)
	batchedSteps int64 // steps executed through batches
}

// NewCluster validates the configuration and builds a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	c := &Cluster{cfg: cfg, link: cfg.Link, decode: -1}
	switch len(cfg.Pools) {
	case 1:
		if cfg.Pools[0].Role != engine.RoleMixed {
			return nil, fmt.Errorf("cluster: a single pool must be %v, got %v",
				engine.RoleMixed, cfg.Pools[0].Role)
		}
		c.entry, c.decode = 0, 0
	case 2:
		if cfg.Pools[0].Role != engine.RolePrefillOnly || cfg.Pools[1].Role != engine.RoleDecodeOnly {
			return nil, fmt.Errorf("cluster: two pools must be (%v, %v), got (%v, %v)",
				engine.RolePrefillOnly, engine.RoleDecodeOnly, cfg.Pools[0].Role, cfg.Pools[1].Role)
		}
		c.entry, c.decode = 0, 1
	default:
		return nil, fmt.Errorf("cluster: %d pools; want one mixed or prefill+decode", len(cfg.Pools))
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("cluster: negative worker count %d", cfg.Workers)
	}
	for i, pc := range cfg.Pools {
		if pc.Admission != nil {
			return nil, fmt.Errorf("cluster: pool %d carries an AdmissionConfig; admission is cluster-wide, set ClusterConfig.Admission", i)
		}
		if pc.Recorder != nil {
			return nil, fmt.Errorf("cluster: pool %d carries a Recorder; observability is cluster-wide, set ClusterConfig.Recorder", i)
		}
		if pc.Workers != 0 {
			return nil, fmt.Errorf("cluster: pool %d carries a worker count; the simulation core is cluster-wide, set ClusterConfig.Workers", i)
		}
		p, err := newPool(c, i, pc)
		if err != nil {
			return nil, err
		}
		c.pools = append(c.pools, p)
	}
	if c.Disaggregated() {
		for _, f := range c.pools[c.entry].flavors {
			if bpt := f.pm.Spec().KVBytesPerToken(); c.minKVBytesPerToken == 0 || bpt < c.minKVBytesPerToken {
				c.minKVBytesPerToken = bpt
			}
		}
		for _, rep := range c.pools[c.entry].reps {
			rep := rep
			rep.eng.AddHandoffHook(func(now float64, r *request.Request) {
				c.onHandoff(rep.idx, now, r)
			})
		}
	}
	if cfg.Admission != nil {
		adm, err := newAdmission(c, *cfg.Admission)
		if err != nil {
			return nil, err
		}
		c.adm = adm
	}
	if cfg.Faults != nil {
		sizes := make([]int, len(c.pools))
		for i, p := range c.pools {
			sizes[i] = len(p.reps)
		}
		flt, err := newFaultState(*cfg.Faults, sizes)
		if err != nil {
			return nil, err
		}
		c.flt = flt
	}
	if cfg.Recorder != nil {
		c.rec = cfg.Recorder
		for _, p := range c.pools {
			for _, rep := range p.reps {
				rep.eng.SetRecorder(c.rec, p.id, rep.idx)
			}
		}
		if c.link != nil {
			c.link.OnSchedule = func(now, start, done float64, bytes int64, dst int) {
				c.lastBook.start, c.lastBook.done, c.lastBook.ok = start, done, true
			}
		}
	}
	if c.link != nil && c.Disaggregated() {
		// Handoffs book per-destination lanes keyed by decode replica index:
		// size the lane table once so a day-long replay never grows it.
		c.link.PreallocateLanes(len(c.pools[c.decode].reps))
	}
	if cfg.Workers > 0 {
		// Arm the batched core last: DeferEffects wraps whatever hooks exist
		// at this point (pool planner observers, admission slack, handoffs,
		// recorder emission), so every install above must already be done.
		if err := c.validateParallel(); err != nil {
			return nil, err
		}
		c.workers = cfg.Workers
		for _, p := range c.pools {
			for _, rep := range p.reps {
				rep.buf = rep.eng.DeferEffects()
			}
		}
	}
	return c, nil
}

// MustNewCluster is NewCluster for statically valid configurations.
func MustNewCluster(cfg ClusterConfig) *Cluster {
	c, err := NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Disaggregated reports whether the cluster splits prefill and decode.
func (c *Cluster) Disaggregated() bool { return c.decode != c.entry }

// NumPools returns the number of pools.
func (c *Cluster) NumPools() int { return len(c.pools) }

// Pool returns the i-th pool (0 = entry/prefill, 1 = decode when
// disaggregated).
func (c *Cluster) Pool(i int) *Pool { return c.pools[i] }

// Handoffs returns every recorded KV migration (complete after Serve). A
// handoff record exists only for booked transfers: a request shed at the
// prefill→transfer boundary never appears here and never consumed link
// bandwidth.
func (c *Cluster) Handoffs() []Handoff {
	out := make([]Handoff, 0, c.handoffs.n)
	for _, chunk := range c.handoffs.chunks {
		out = append(out, chunk...)
	}
	return out
}

// ShedRequests returns every request refused by admission control, in shed
// order (nil without admission control). Complete after Serve.
func (c *Cluster) ShedRequests() []*request.Request {
	if c.adm == nil {
		return nil
	}
	return c.adm.shedList
}

// HeldRequests returns the number of arrivals currently held at the
// cluster front (0 after Serve: the run flush-sheds leftovers).
func (c *Cluster) HeldRequests() int {
	if c.adm == nil {
		return 0
	}
	return c.adm.Held()
}

// ReplicaSeconds returns the provisioned-time integral across all pools.
func (c *Cluster) ReplicaSeconds() float64 {
	sum := 0.0
	for _, p := range c.pools {
		sum += p.ReplicaSeconds()
	}
	return sum
}

// CostSeconds returns the normalized provisioning cost across all pools:
// replica-seconds scaled by each replica's flavor cost weight (1.0 = one
// A100-80G replica-second) — the axis the cost-aware planner minimizes.
func (c *Cluster) CostSeconds() float64 {
	sum := 0.0
	for _, p := range c.pools {
		sum += p.CostSeconds()
	}
	return sum
}

// Duration returns the simulated span of the served stream (after Serve).
func (c *Cluster) Duration() float64 { return c.endAt - c.startAt }

// transferEstimate returns the prefill planner's expected transfer delay as
// a function of the mean input length — the TTFT budget the link consumes —
// for a flavor whose model stores bytesPerToken of KV per token. Monolithic
// clusters and nil links estimate zero.
func (c *Cluster) transferEstimate(bytesPerToken int64) func(isl float64) float64 {
	if c.link == nil || !c.Disaggregated() {
		return nil
	}
	link := c.link
	return func(isl float64) float64 {
		// The migrating footprint is the prompt plus the prefill token.
		return link.TransferTime(int64(isl+1) * bytesPerToken)
	}
}

// pushEvent assigns the next sequence number and queues a simulation event.
func (c *Cluster) pushEvent(ev event) {
	c.evSeq++
	ev.seq = c.evSeq
	c.events.push(ev)
}

// Serve routes the requests (sorted by arrival time internally), advancing
// replica engines in global timestamp order through the event heap so each
// routing decision observes every replica's state as of the request's
// arrival, then drains the cluster until deadline. It returns each
// replica's result, pool-major. One-shot: a cluster serves one stream.
func (c *Cluster) Serve(reqs []*request.Request, deadline float64) []*engine.Result {
	sorted := append([]*request.Request(nil), reqs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ArrivalTime < sorted[j].ArrivalTime })
	i := 0
	return c.ServeStream(func() *request.Request {
		if i >= len(sorted) {
			return nil
		}
		r := sorted[i]
		i++
		return r
	}, deadline)
}

// ServeStream is Serve over a pull-based arrival source: next returns the
// requests in nondecreasing ArrivalTime order and nil at end of stream, so
// a million-request replay never materializes its slice. On a sorted slice
// it is decision-identical to Serve (which now wraps it). With Workers > 0
// arrivals route through the event heap (serveEvented); the reference path
// is the same per-arrival loop Serve has always run.
func (c *Cluster) ServeStream(next func() *request.Request, deadline float64) []*engine.Result {
	if c.workers > 0 {
		return c.serveEvented(next, deadline)
	}
	req := next()
	startAt := 0.0
	if req != nil {
		startAt = req.ArrivalTime
	}
	c.start(startAt) // always: pre-loaded engines drain even with no stream
	for ; req != nil; req = next() {
		if req.ArrivalTime > deadline {
			break
		}
		t := req.ArrivalTime
		c.advanceTo(t)
		c.handleArrival(t, req)
	}
	c.advanceTo(deadline) // drain: steps, activations, deliveries, ticks
	c.finish(deadline)
	return c.results()
}

// arrivalBlock bounds how many pending arrivals the evented path keeps in
// the heap at once, so streaming a 10M-request day holds O(block) arrival
// state instead of O(N).
const arrivalBlock = 4096

// serveEvented is the Workers > 0 serve loop: arrivals become evArrive heap
// events (in blocks, pulled lazily from the stream), so each advanceTo spans
// thousands of events and the batched core can form wide step batches. The
// heap's (time, kind, seq) order reproduces the reference loop exactly:
// evArrive sorts after same-instant activations and before every other
// same-instant kind — precisely where the sequential loop processes an
// arrival — and stale step events pushed by routing sort before later
// arrivals just as the reference's next advanceTo would pop them.
func (c *Cluster) serveEvented(next func() *request.Request, deadline float64) []*engine.Result {
	if c.workers > 1 && c.runner == nil {
		c.runner = newStepRunner(c.workers)
		defer func() {
			c.runner.stop()
			c.runner = nil
		}()
	}
	req := next()
	startAt := 0.0
	if req != nil {
		startAt = req.ArrivalTime
	}
	c.start(startAt)
	for req != nil && req.ArrivalTime <= deadline {
		for n := 0; n < arrivalBlock && req != nil && req.ArrivalTime <= deadline; n++ {
			c.pushEvent(event{at: req.ArrivalTime, kind: evArrive, req: req})
			req = next()
		}
		if req != nil && req.ArrivalTime <= deadline {
			c.advanceTo(req.ArrivalTime)
		}
	}
	c.advanceTo(deadline)
	c.finish(deadline)
	return c.results()
}

// handleArrival runs the per-arrival pipeline at time t: planner load
// observation, tick arming, reactive scaling, then admission or immediate
// routing. Shared verbatim by the sequential loop and the evArrive handler
// so both cores make identical decisions.
func (c *Cluster) handleArrival(t float64, req *request.Request) {
	entry := c.pools[c.entry]
	if entry.plan != nil {
		entry.plan.observeArrival(req.InputLen)
	}
	for _, p := range c.pools {
		p.ensureTick(t)
	}
	if entry.cfg.Scale != nil {
		entry.reactiveScale(t)
	}
	if c.adm != nil {
		if c.rec != nil {
			c.rec.Arrive(t, req)
		}
		c.adm.arrive(t, req)
		return
	}
	rep := entry.route(req)
	rep.eng.Submit(req)
	if c.rec != nil {
		// After Submit: the engine clamps a stale ArrivalTime up to its
		// own clock, and the span's clock must match the request's.
		c.rec.Arrive(req.ArrivalTime, req)
		c.rec.Place(req.ArrivalTime, req, entry.id, rep.idx, rep.flv.name)
	}
	entry.placed(rep, req)
	c.ensureStepEvent(entry, rep)
}

// results snapshots every replica, pool-major.
func (c *Cluster) results() []*engine.Result {
	var results []*engine.Result
	for _, p := range c.pools {
		for _, rep := range p.reps {
			results = append(results, rep.eng.Snapshot())
		}
	}
	return results
}

// EventsProcessed returns how many simulation events the cluster has
// handled — heap pops plus evented arrivals — the throughput numerator the
// scale benchmark reports as events/sec.
func (c *Cluster) EventsProcessed() int64 { return c.popped }

// BatchStats reports the parallel core's batch formation quality: how many
// step batches ran and the mean steps per batch (0, 0 on the reference
// core). Mean width bounds the achievable speedup — a width of w can use at
// most w workers.
func (c *Cluster) BatchStats() (batches int64, meanWidth float64) {
	if c.batches == 0 {
		return 0, 0
	}
	return c.batches, float64(c.batchedSteps) / float64(c.batches)
}

// start arms the event loop: replica-seconds clocks for the initially
// active replicas and step events for engines pre-loaded before Serve.
func (c *Cluster) start(t float64) {
	if c.started {
		return
	}
	c.started = true
	c.startAt = t
	for _, p := range c.pools {
		for _, rep := range p.reps {
			if rep.active {
				rep.activeAt = t
			}
			c.ensureStepEvent(p, rep)
		}
	}
	c.armFaultEvents()
}

// finish closes replica-seconds accounting at the cluster's end time and
// terminates whatever admission still holds (the stream is over; an
// unserved hold is a refusal).
func (c *Cluster) finish(deadline float64) {
	c.endAt = c.startAt
	for _, p := range c.pools {
		for _, rep := range p.reps {
			if clk := rep.eng.Clock(); clk > c.endAt {
				c.endAt = clk
			}
		}
	}
	if c.endAt > deadline {
		c.endAt = deadline
	}
	if c.adm != nil {
		c.adm.flush(c.endAt)
	}
	for _, p := range c.pools {
		for _, rep := range p.reps {
			// A replica still under repair at the end accrues nothing: its
			// span was closed at the crash.
			if rep.active && !rep.down {
				span := c.endAt - rep.activeAt
				if span > 0 {
					rep.activeSecs += span
				}
			}
		}
	}
}

// advanceTo pops and handles every event due strictly before t, plus
// activations and evented arrivals at exactly t (a replica whose delay
// elapses at t must be eligible for an arrival at t, matching the scan
// router's t ≥ wakeAt; an evArrive at t is the arrival the sequential loop
// would process after its own advanceTo(t) — the reference never pushes
// evArrive, so admitting the kind here changes nothing for it).
func (c *Cluster) advanceTo(t float64) {
	if c.workers > 0 {
		c.advanceBatched(t)
		return
	}
	for c.events.Len() > 0 {
		top := c.events.top()
		if top.at > t || (top.at == t && top.kind != evActivate) {
			return
		}
		c.popped++
		c.handle(c.events.pop())
	}
}

func (c *Cluster) handle(ev event) {
	p := c.pools[ev.pool]
	switch ev.kind {
	case evStep:
		rep := p.reps[ev.rep]
		rep.inHeap = false
		if rep.down {
			return // stale step on a crashed replica; recovery re-arms
		}
		rep.eng.Step()
		// Unconditionally: a Step returning false can still have mutated
		// state (queue-timeout drops run before the drained check).
		rep.moved(rep.eng.PureDecodeLastStep())
		if rep.draining && p.drained(rep) {
			p.retire(rep, rep.eng.Clock())
		}
		c.ensureStepEvent(p, rep)
		// A step that released a request (finish, handoff, timeout, fail)
		// is a capacity event: a held arrival that probed over the gate may
		// fit now. This replaces per-tick polling of the admission queue.
		// The retry is deferred to an event at the step's end clock — steps
		// pop in start-time order, so retrying inline here could shed a
		// head at a timestamp later than events still in the heap.
		if c.adm != nil && rep.eng.ReleasedLastStep() {
			c.scheduleRetry(rep.eng.Clock())
		}
	case evArrive:
		c.handleArrival(ev.at, ev.req)
	case evActivate:
		rep := p.reps[ev.rep]
		// Stale activations (the replica was scaled back in, re-armed with a
		// different wake time, or crashed while activating) are ignored.
		if rep.active && !rep.awake && !rep.down && rep.wakeAt == ev.at {
			rep.awake = true
			p.rebuildAccepting()
			if c.adm != nil {
				c.adm.retry(ev.at) // fresh capacity: release held arrivals
			}
		}
	case evXfer:
		c.issueHandoff(ev)
	case evRetry:
		c.adm.retryPending = false
		c.adm.retry(ev.at)
	case evDeliver:
		c.deliver(ev)
	case evPlan:
		p.planScheduled = false
		if p.plan != nil {
			targets := p.plan.tick(ev.at, p.activeByFlavor())
			p.applyTargets(ev.at, targets)
			p.plan.History[len(p.plan.History)-1].Active = p.ActiveReplicas()
			if c.rec != nil {
				total := 0
				for _, t := range targets {
					total += t
				}
				c.rec.PlanPoint(ev.at, p.id, total, p.ActiveReplicas())
			}
		} else if p.cfg.Scale != nil {
			p.reactiveScale(ev.at)
		}
		if c.adm != nil {
			c.adm.retry(ev.at) // an un-drained replica is immediate capacity
		}
		if c.anyBusy() {
			p.scheduleTick(ev.at + p.tickInterval())
		}
	case evCrash:
		c.crashReplica(ev)
	case evRecover:
		c.recoverReplica(ev)
	case evSlow:
		c.slowReplica(ev)
	case evSlowEnd:
		c.slowEnd(ev)
	case evXferRetry:
		c.retryHandoff(ev)
	}
}

// onHandoff fires inside a prefill engine's Step. The booking is deferred
// to an evXfer event at the issue time rather than done here: engine steps
// execute in start-time order while their effects land at their end times,
// so booking eagerly would write the link in engine-step order — an
// earlier-issued handoff could queue behind a later one. The event heap
// replays the handoffs in issue-time order (ties broken by request arrival,
// then ID).
func (c *Cluster) onHandoff(fromRep int, now float64, r *request.Request) {
	c.pushEvent(event{at: now, kind: evXfer, pool: c.decode, rep: fromRep, req: r})
}

// issueHandoff books one handoff at the prefill→transfer boundary: the
// decode replica is picked on a (fits, expected delivery, headroom) cost
// vector, and — under admission shedding — a request whose TTFT budget the
// expected delivery already overruns is shed *before* any link bandwidth
// is committed to it.
func (c *Cluster) issueHandoff(ev event) {
	r := ev.req
	dp := c.pools[c.decode]
	// The transfer moves the KV cache the source replica materialized, so
	// its size comes from that replica's own model — per-flavor in a
	// heterogeneous prefill pool, identical to the old fleet-wide constant
	// in a homogeneous one.
	bytes := int64(r.Footprint()) * c.pools[c.entry].reps[ev.rep].eng.KVBytesPerToken()
	rep, deliverAt := c.pickDecode(ev.at, r, bytes, dp)
	if c.flt != nil && rep.down {
		// Every decode replica is down (the pick fell through to the crashed
		// fallback). The wire never carries a transfer to a crashed
		// destination: without recovery the request is lost here; with it,
		// the booking defers to the destination's repair, where the retry
		// re-picks and prices normally.
		if !c.flt.cfg.Recover {
			r.MarkFailed()
			c.flt.lost = append(c.flt.lost, r)
			if c.rec != nil {
				c.rec.Fail(ev.at, r, c.decode, rep.idx)
			}
			return
		}
		idx := c.handoffs.add(Handoff{
			Req: r, FromReplica: ev.rep, ToReplica: -1,
			PrefillDoneAt: ev.at, DeliveredAt: -1,
			bytes: bytes,
		})
		if c.rec != nil {
			c.rec.XferFail(ev.at, r, rep.repairAt)
		}
		c.pushEvent(event{at: rep.repairAt, kind: evXferRetry, pool: c.decode, rep: idx, req: r})
		return
	}
	if c.adm != nil && c.adm.cfg.Shed && r.TTFTDeadline > 0 && deliverAt > r.TTFTDeadline {
		c.adm.shed(ev.at, r, shedBoundary)
		return
	}
	if c.link != nil {
		deliverAt = c.link.ScheduleTo(ev.at, bytes, rep.idx)
	}
	if c.rec != nil {
		start, done := ev.at, deliverAt
		if c.lastBook.ok {
			start, done = c.lastBook.start, c.lastBook.done
			c.lastBook.ok = false
		}
		c.rec.XferBook(ev.at, r, c.entry, ev.rep, c.decode, rep.idx, bytes, start, done)
	}
	dp.routeTo(r, rep)
	rep.pendingIn++
	idx := c.handoffs.add(Handoff{
		Req: r, FromReplica: ev.rep, ToReplica: rep.idx,
		PrefillDoneAt: ev.at, DeliveredAt: deliverAt,
		bytes: bytes,
	})
	c.pushEvent(event{at: deliverAt, kind: evDeliver, pool: c.decode, rep: idx, req: r})
}

// pickDecode is the contention-aware second routing stage: each accepting
// decode replica is priced as a cost vector — does the probed future peak
// fit its capacity, when would the KV transfer land on its ingress lane
// (kv.Link.ExpectedDeliveryTo, wire queueing included), and how much
// speed-normalized headroom remains (the raw fraction scaled by the
// replica's flavor speed, so a 4090's and an A100's probes compare) —
// ranked lexicographically (fits, delivery, headroom). On a single shared
// wire every delivery estimate coincides and the pick degrades to
// FutureHeadroom; with per-destination lanes a backed-up ingress diverts
// bursts to replicas that can actually receive them. Fitting stays a raw
// memory test: speed does not make an overflowing batch fit.
func (c *Cluster) pickDecode(now float64, r *request.Request, bytes int64, dp *Pool) (*replica, float64) {
	cands := dp.accepting
	if len(cands) == 0 {
		rep := dp.fallbackReplica()
		return rep, c.expectedDelivery(now, bytes, rep.idx)
	}
	for {
		var best *replica
		bestFits, bestDeliver, bestScore := false, math.Inf(1), math.Inf(1)
		bestFrac, bestExact := 0.0, true
		for _, rep := range cands {
			frac, exact := dp.probeBound(rep, r)
			score := frac / rep.flv.relSpeed
			deliver := c.expectedDelivery(now, bytes, rep.idx)
			fits := frac <= 1
			better := false
			switch {
			case best == nil:
				better = true
			case fits != bestFits:
				better = fits
			case deliver != bestDeliver:
				better = deliver < bestDeliver
			default:
				// Equal fit and delivery: the shared (fits, score) ranking.
				better = betterFit(fits, score, bestFits, bestScore)
			}
			if better {
				best, bestFits, bestDeliver, bestScore = rep, fits, deliver, score
				bestFrac, bestExact = frac, exact
			}
		}
		// The cost vector is monotone in the fraction, so the sweep ends on
		// the true pick once it ends on an exact value (see bestProbe).
		if bestExact || dp.probe(best, r) == bestFrac {
			return best, bestDeliver
		}
	}
}

// scheduleRetry queues an admission re-examination at time `at`, coalescing
// with an already-pending retry at an earlier-or-equal time: engine state is
// mutated eagerly, so the earlier retry will already see this capacity (it
// only evaluates feasibility at its own, earlier timestamp — a head it
// cannot yet shed simply waits for the next capacity event).
func (c *Cluster) scheduleRetry(at float64) {
	if c.adm.retryPending && c.adm.retryAt <= at {
		return
	}
	c.adm.retryPending = true
	c.adm.retryAt = at
	c.pushEvent(event{at: at, kind: evRetry})
}

// expectedDelivery prices one un-booked transfer to a decode replica.
func (c *Cluster) expectedDelivery(now float64, bytes int64, dst int) float64 {
	if c.link == nil {
		return now
	}
	return c.link.ExpectedDeliveryTo(now, bytes, dst)
}

// deliver lands one KV migration on the replica picked at issue time: the
// request's SLA clock shifts to the delivery (its first token is visible
// only now — TTFT includes the transfer) and the decode pool's planner
// observes the arrival. If the booked destination left the accepting set
// while the transfer was on the wire (planner drain/retire), the migration
// is re-routed on landing.
func (c *Cluster) deliver(ev event) {
	r := ev.req
	if c.flt != nil {
		if c.flt.failsDelivery(ev.at) {
			c.failDelivery(ev) // the transfer died on the wire
			return
		}
		if c.pools[c.decode].reps[c.handoffs.at(ev.rep).ToReplica].down {
			// The destination crashed while the transfer was in flight: the
			// KV landed nowhere. A failed delivery, not a free re-route.
			c.failDelivery(ev)
			return
		}
	}
	r.RecordMigration(ev.at)
	dp := c.pools[c.decode]
	if dp.plan != nil {
		dp.plan.observeArrival(r.Footprint())
	}
	// The prefill pool's planner observes the end-to-end first-token
	// latency (queue + prefill + transfer) its sizing must keep under the
	// TTFT target; handoffs are its "finishes".
	if pp := c.pools[c.entry]; pp.plan != nil && c.Disaggregated() {
		pp.plan.observeFinish(1, ev.at-r.ArrivalTime, 0)
	}
	for _, p := range c.pools {
		p.ensureTick(ev.at)
	}
	if dp.cfg.Scale != nil {
		dp.reactiveScale(ev.at)
	}
	h := c.handoffs.at(ev.rep)
	rep := dp.reps[h.ToReplica]
	rep.pendingIn--
	if !rep.active || !rep.awake || rep.draining {
		old := rep
		rep = dp.pick(r)
		old.routed--
		dp.routeTo(r, rep) // a fresh routing decision: count it and tell observers
		h.ToReplica = rep.idx
		if old.draining && dp.drained(old) {
			dp.retire(old, ev.at)
		}
	}
	if c.rec != nil {
		c.rec.XferDeliver(ev.at, r, c.decode, rep.idx)
	}
	rep.eng.SubmitMigrated(r, ev.at)
	dp.placed(rep, r)
	c.ensureStepEvent(dp, rep)
	if c.cfg.OnHandoff != nil {
		c.cfg.OnHandoff(*h)
	}
	if c.adm != nil {
		c.adm.retry(ev.at) // the prefill side freed this footprint at handoff
	}
}

// ensureStepEvent inserts a step event for a busy replica that has none. A
// crashed replica steps nothing until repaired — recovery re-arms it.
func (c *Cluster) ensureStepEvent(p *Pool, rep *replica) {
	if rep.down || rep.inHeap || rep.eng.Idle() {
		return
	}
	rep.inHeap = true
	c.pushEvent(event{at: rep.eng.Clock(), kind: evStep, pool: p.id, rep: rep.idx})
}

func (c *Cluster) anyBusy() bool {
	for _, p := range c.pools {
		for _, rep := range p.reps {
			if !rep.eng.Idle() {
				return true
			}
		}
	}
	return false
}
