package cluster

import (
	"fmt"
	"math"
	"sort"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/minheap"
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
	// Workers is accepted and ignored. It selected a batched simulation core
	// that ran independent engine steps on worker goroutines; that core never
	// beat the single one it had to reproduce and is gone. The field stays
	// one release so callers that set it still build; it will be removed.
	Workers int
}

// Cluster composes role-aware pools behind one event min-heap — the single
// clock every pool shares — and the two-stage disaggregated router.
type Cluster struct {
	cfg   ClusterConfig
	pools []*Pool

	events minheap.Heap[event]
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

	started bool
	startAt float64
	endAt   float64
	// streamDone is set once the arrival stream is exhausted; from then on
	// an autoscaler tick that finds the run over (runOver) does nothing.
	streamDone bool
	// xferRetries counts the failed or deferred KV transfers waiting in the
	// heap to re-book (evXferRetry).
	xferRetries int

	popped int64 // heap events popped, stale ones included
	// coasting lists the replicas whose step event ends a run of coasted steps
	// their engine has not all taken yet (replica.coastIdx is the position +
	// 1): the replicas catchUp visits.
	coasting []*replica
	// coastClock holds, beside each coasting replica, its engine's clock as
	// of the last time the cluster moved or looked at it: never above the
	// clock (clocks never fall), so catchUp passes over a replica whose entry
	// is past an event without missing a step, and a stale entry costs one
	// visit.
	coastClock []float64
	// cuts counts, by the kind of event that forced it, the catch-ups that
	// took coasted steps inside a run; arrivals, which are no heap event,
	// count under evStep, which never forces one.
	cuts [evXferRetry + 1]int
}

// NewCluster validates the configuration and builds a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	c := &Cluster{cfg: cfg, events: minheap.New(eventBefore), link: cfg.Link, decode: -1}
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
	for i, pc := range cfg.Pools {
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
			rep.eng.AddExitHook(func(now float64, r *request.Request) {
				if r.Outcome == request.OutcomePending { // a handoff
					c.onHandoff(rep.idx, now, r)
				}
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
	}
	if c.link != nil && c.Disaggregated() {
		// Handoffs book per-destination lanes keyed by decode replica index:
		// size the lane table once so a day-long replay never grows it.
		c.link.PreallocateLanes(len(c.pools[c.decode].reps))
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

// ReplicaSeconds returns the billed-time integral across all pools.
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
	c.events.Push(ev)
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
// it is decision-identical to Serve (which wraps it).
func (c *Cluster) ServeStream(next func() *request.Request, deadline float64) []*engine.Result {
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
	c.streamDone = true
	c.advanceTo(deadline) // drain: steps, activations, deliveries, ticks
	c.finish(deadline)
	return c.results()
}

// handleArrival runs the per-arrival pipeline at time t, once every event
// before t has been handled: catch-up, planner load observation, tick arming,
// reactive scaling, then admission or immediate routing.
func (c *Cluster) handleArrival(t float64, req *request.Request) {
	if c.catchUp(t, false) {
		c.cuts[evStep]++
	}
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
	// Not c.place: a fresh arrival goes through Submit, which clamps a stale
	// ArrivalTime up to the engine's clock, where a placement keeps it.
	rep := entry.pick(req)
	if rep.downForGood() {
		if c.rec != nil {
			c.rec.Arrive(t, req)
		}
		c.lose(t, req, entry.id, rep.idx)
		return
	}
	entry.routeTo(req, rep)
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

// EventsProcessed returns how many events the cluster popped off its event
// heap, stale step events included. Arrivals are not heap events, and a run
// of coasted decode steps is one event, not one per step.
func (c *Cluster) EventsProcessed() int64 { return c.popped }

// BatchStats always returns (0, 0). It reported how the batched simulation
// core, now gone, grouped engine steps; it stays one release for callers
// that still read it, and will be removed.
func (c *Cluster) BatchStats() (batches int64, meanWidth float64) { return 0, 0 }

// start arms the event loop: step events for engines pre-loaded before
// Serve, and the fault schedule.
func (c *Cluster) start(t float64) {
	if c.started {
		return
	}
	c.started = true
	c.startAt = t
	for _, p := range c.pools {
		for _, rep := range p.reps {
			c.ensureStepEvent(p, rep)
		}
	}
	c.armFaultEvents()
}

// finish fixes the run's end time, which bounds the replica-seconds billed,
// and terminates whatever admission still holds (the stream is over; an
// unserved hold is a refusal). Every event before the deadline has been
// handled; the coasted steps before it are taken here.
func (c *Cluster) finish(deadline float64) {
	c.catchUp(deadline, false)
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
}

// advanceTo pops and handles every event due strictly before t, plus
// activations at exactly t (a replica whose delay elapses at t must be
// eligible for an arrival at t, matching the scan router's t ≥ wakeAt).
func (c *Cluster) advanceTo(t float64) {
	for c.events.Len() > 0 {
		top := c.events.Top()
		if top.at > t || (top.at == t && top.kind != evActivate) {
			return
		}
		c.popped++
		c.handle(c.events.Pop())
	}
}

func (c *Cluster) handle(ev event) {
	p := c.pools[ev.pool]
	if ev.kind != evStep && c.catchUp(ev.at, ev.kind > evStep) {
		c.cuts[ev.kind]++
	}
	switch ev.kind {
	case evStep:
		rep := p.reps[ev.rep]
		if ev.seq != rep.stepSeq {
			return // superseded: the cluster changed the engine under the run
		}
		rep.stepSeq = 0
		if rep.coastIdx != 0 {
			rep.decoded(rep.eng.CoastUntil(ev.at, false))
			c.dropCoaster(rep)
		}
		if rep.eng.Clock() != ev.at {
			panic(fmt.Sprintf("cluster: pool %d replica %d: step event at %v, engine clock %v: the engine moved under its run without a new event",
				p.id, rep.idx, ev.at, rep.eng.Clock()))
		}
		if rep.down {
			return // a crashed replica steps nothing; recovery re-arms
		}
		rep.eng.Step()
		// Unconditionally: a Step returning false can still have mutated
		// state (queue-timeout drops run before the drained check).
		rep.moved(rep.eng.LastStep())
		if rep.phase == draining && p.drained(rep) {
			p.transition(rep, rep.eng.Clock(), cold, false)
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
	case evActivate:
		rep := p.reps[ev.rep]
		// Stale activations (the replica was scaled back in, re-armed with a
		// different wake time, or crashed) are ignored; one drained before
		// its wake stays draining.
		if rep.down || rep.wakeAt != ev.at || rep.phase != waking && rep.phase != draining {
			break
		}
		if rep.phase == waking {
			p.transition(rep, ev.at, serving, false)
		}
		if c.adm != nil {
			c.adm.retry(ev.at) // fresh capacity: release held arrivals
		}
	case evXfer, evXferRetry:
		c.book(ev)
	case evRetry:
		c.adm.retryPending = false
		c.adm.retry(ev.at)
	case evDeliver:
		c.deliver(ev)
	case evPlan:
		p.planScheduled = false
		if c.streamDone && c.runOver(ev.at) {
			return // no tick after the run: nothing is left to serve
		}
		if p.plan != nil {
			p.applyTargets(ev.at, p.plan.tick(ev.at, p.activeByFlavor()))
			s := &p.plan.History[len(p.plan.History)-1]
			s.Active = p.ActiveReplicas()
			if c.rec != nil {
				c.rec.PlanPoint(ev.at, p.id, s.Target, s.Active)
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

// book books one handoff's KV transfer, in event-time order, which honors
// the link's nondecreasing issue-time contract. evXfer issues a handoff at
// the prefill→transfer boundary (ev.rep is its source replica; no record
// exists yet); evXferRetry re-books a failed or deferred one (ev.rep is its
// record, whose ToReplica is -1 if it was never routed). The decode replica
// is picked on a (fits, expected delivery, headroom) cost vector — on a
// retry the original may be down or retired — and, under admission
// shedding, a request whose TTFT budget the expected delivery already
// overruns is shed *before* any link bandwidth is committed to it: on a
// retry a re-prefill would pay strictly more, so that shed is terminal too.
// An issued handoff gets its record only when it is booked or deferred, so
// a shed one never appears in Handoffs.
func (c *Cluster) book(ev event) {
	r := ev.req
	dp := c.pools[c.decode]
	idx := -1
	var fresh Handoff
	h := &fresh
	var old *replica
	if ev.kind == evXferRetry {
		c.xferRetries--
		idx = ev.rep
		h = c.handoffs.at(idx)
		if h.ToReplica >= 0 {
			old = dp.reps[h.ToReplica]
		}
	} else {
		// The transfer moves the KV cache the source replica materialized, so
		// its size comes from that replica's own model — per-flavor in a
		// heterogeneous prefill pool, identical to the old fleet-wide constant
		// in a homogeneous one.
		fresh = Handoff{
			Req: r, FromReplica: ev.rep, ToReplica: -1,
			PrefillDoneAt: ev.at, DeliveredAt: -1,
			bytes: int64(r.Footprint()) * c.pools[c.entry].reps[ev.rep].eng.KVBytesPerToken(),
		}
	}
	rep, deliverAt := c.pickDecode(ev.at, r, h.bytes, dp)
	if rep.down {
		// Every decode replica is down (the pick fell through to the crashed
		// fallback). The wire never carries a transfer to a crashed
		// destination: without recovery the request is lost here, and so it
		// is when the destination never comes back (an infinite repair); with
		// recovery, the booking defers to the destination's repair, where the
		// retry re-picks and prices normally. Not a wire failure, so Retries
		// is not charged.
		if !c.flt.cfg.Recover || rep.downForGood() {
			c.lose(ev.at, r, c.decode, rep.idx)
			return
		}
		if idx < 0 {
			idx = c.handoffs.add(fresh)
		}
		if c.rec != nil {
			c.rec.XferFail(ev.at, r, rep.repairAt)
		}
		c.xferRetries++
		c.pushEvent(event{at: rep.repairAt, kind: evXferRetry, pool: c.decode, rep: idx, req: r})
		return
	}
	if c.adm != nil && c.adm.cfg.Shed && r.TTFTDeadline > 0 && deliverAt > r.TTFTDeadline {
		if old != nil {
			old.routed--
		}
		c.adm.shed(ev.at, r, shedBoundary)
		return
	}
	start := ev.at
	if c.link != nil {
		start, deliverAt = c.link.Schedule(ev.at, h.bytes, rep.idx)
	}
	if c.rec != nil {
		c.rec.XferBook(ev.at, r, c.entry, h.FromReplica, c.decode, rep.idx, h.bytes, start, deliverAt)
	}
	if rep != old {
		if old != nil {
			old.routed--
		}
		dp.routeTo(r, rep)
		h.ToReplica = rep.idx
	}
	rep.pendingIn++
	h.DeliveredAt = deliverAt
	if idx < 0 {
		idx = c.handoffs.add(fresh)
	}
	c.pushEvent(event{at: deliverAt, kind: evDeliver, pool: c.decode, rep: idx, req: r})
}

// pickDecode is the contention-aware second routing stage: each accepting
// decode replica is priced as a cost vector — does the probed future peak
// fit its capacity, when would the KV transfer land on its ingress lane
// (kv.Link.ExpectedDelivery, wire queueing included), and how much
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
		if dp.settled(best, r, bestFrac, bestExact) {
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
	return c.link.ExpectedDelivery(now, bytes, dst)
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
	if !rep.accepts() {
		old := rep
		rep = dp.pick(r)
		old.routed--
		dp.routeTo(r, rep) // a fresh routing decision: count it and tell observers
		h.ToReplica = rep.idx
		if old.phase == draining && dp.drained(old) {
			dp.transition(old, ev.at, cold, false)
		}
	}
	if c.rec != nil {
		c.rec.XferDeliver(ev.at, r, c.decode, rep.idx)
	}
	rep.eng.SubmitMigrated(r, ev.at)
	dp.placed(rep, r)
	c.ensureStepEvent(dp, rep)
	if c.adm != nil {
		c.adm.retry(ev.at) // the prefill side freed this footprint at handoff
	}
}

// ensureStepEvent keeps a replica's step event where its engine's next real
// step starts (engine.CoastEnd). A busy replica without one gets one; a
// crashed one gets none until repaired — recovery re-arms it. Every site that
// changes an engine (a placement, a crash, a slowdown or its end, a clock
// sync) calls this after the change: if the change cut a run of coasted steps
// short, or re-priced it, the run's event is superseded by one at the new
// end — for all but a slowdown, the engine's clock. A crashed replica's event
// moves too, to the clock at which the per-step loop's event would sit.
func (c *Cluster) ensureStepEvent(p *Pool, rep *replica) {
	switch {
	case rep.stepSeq != 0:
		if rep.stepAt == rep.eng.Clock() {
			return // no run pending: the next step decides for itself
		}
		if end := rep.eng.CoastEnd(); end != rep.stepAt {
			c.pushStep(p, rep, end)
		}
	case !rep.down && !rep.eng.Idle():
		c.pushStep(p, rep, rep.eng.CoastEnd())
	}
}

// pushStep makes an event at `at` the replica's one live step event, and
// lists the replica as coasting while its engine's clock trails it.
func (c *Cluster) pushStep(p *Pool, rep *replica, at float64) {
	c.pushEvent(event{at: at, kind: evStep, pool: p.id, rep: rep.idx})
	rep.stepSeq, rep.stepAt = c.evSeq, at
	clock := rep.eng.Clock()
	switch coasting := at != clock; {
	case coasting && rep.coastIdx == 0:
		c.coasting = append(c.coasting, rep)
		c.coastClock = append(c.coastClock, clock)
		rep.coastIdx = len(c.coasting)
	case coasting:
		c.coastClock[rep.coastIdx-1] = clock
	case rep.coastIdx != 0:
		c.dropCoaster(rep)
	}
}

// dropCoaster takes a replica off the coasting list.
func (c *Cluster) dropCoaster(rep *replica) {
	i, last := rep.coastIdx-1, len(c.coasting)-1
	c.coasting[i], c.coastClock[i] = c.coasting[last], c.coastClock[last]
	c.coasting[i].coastIdx = rep.coastIdx
	c.coasting, c.coastClock = c.coasting[:last], c.coastClock[:last]
	rep.coastIdx = 0
}

// catchUp brings every coasting replica to where the per-step loop would
// have it before an event at t (events.go): it takes the coasted steps that
// start before t, and those at t too when inclusive — the event's kind sorts
// after evStep. Each counts one step of probe lag, as a popped pure decode
// step would. A replica that reaches the end of its run leaves the list; its
// step event is the next thing it waits for. A replica whose clock
// (coastClock) is past t, or at t when not inclusive, has no step to take and
// is passed over without touching its engine. It reports whether any replica
// took a step.
func (c *Cluster) catchUp(t float64, inclusive bool) bool {
	took := false
	for i := 0; i < len(c.coasting); {
		if clk := c.coastClock[i]; clk > t || clk == t && !inclusive {
			i++
			continue
		}
		rep := c.coasting[i]
		if n := rep.eng.CoastUntil(t, inclusive); n > 0 {
			rep.decoded(n)
			took = true
		}
		if clk := rep.eng.Clock(); clk != rep.stepAt {
			c.coastClock[i] = clk
			i++
			continue
		}
		c.dropCoaster(rep) // the last replica moved into slot i
	}
	return took
}

// runOver reports whether the run has ended by now: every engine idle with
// its clock at or before now, no KV transfer booked or waiting to retry, and
// nothing held at admission. Once the arrival stream is exhausted, nothing
// can start work again after that.
func (c *Cluster) runOver(now float64) bool {
	if c.xferRetries > 0 || c.adm != nil && c.adm.Held() > 0 {
		return false
	}
	for _, p := range c.pools {
		for _, rep := range p.reps {
			if !rep.eng.Idle() || rep.eng.Clock() > now || rep.pendingIn > 0 {
				return false
			}
		}
	}
	return true
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
