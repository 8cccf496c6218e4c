package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
)

// Policy selects how arriving requests choose a replica.
type Policy int

const (
	// RoundRobin cycles through accepting replicas, starting at the first.
	RoundRobin Policy = iota
	// LeastLoaded picks the replica with the fewest requests on it: running
	// plus waiting, where waiting includes what the router placed since the
	// replica's last step (engine.WaitingLen).
	LeastLoaded
	// FutureHeadroom picks the replica whose predicted future peak memory
	// (running + waiting + the candidate, conditional-quantile predictions
	// from the replica's own history window) leaves the most headroom.
	FutureHeadroom
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case FutureHeadroom:
		return "future-headroom"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// AutoScale is the threshold-reactive scaling policy: scale out when the
// mean predicted load of the accepting replicas exceeds HighWater, scale in
// (one drained replica at a time) when it falls below LowWater. It is the
// baseline the predictive planner is measured against. The pool starts on
// one replica and never scales in below it.
type AutoScale struct {
	// Max bounds the replicas the autoscaler counts: 1 ≤ Max ≤ replicas.
	Max int
	// HighWater: scale out when mean predicted load across accepting
	// replicas exceeds this fraction (e.g. 0.85).
	HighWater float64
	// LowWater: scale in when mean predicted load falls below this
	// fraction (e.g. 0.30) and a replica is drained.
	LowWater float64
	// ActivationDelay is the simulated seconds between a scale-out decision
	// and the replica accepting traffic (model load time).
	ActivationDelay float64
	// EvalInterval, when positive (at least minTickInterval), additionally
	// evaluates the thresholds on a periodic tick (so the policy can scale
	// in while traffic drains, not only at arrivals). 0 evaluates at
	// arrivals only — the original router behavior.
	EvalInterval float64
}

// Config configures one Pool: a set of same-role replicas behind a routing
// policy with optional autoscaling. A monolithic fleet is the cluster of one
// RoleMixed pool: NewCluster(ClusterConfig{Pools: []Config{cfg}}).
type Config struct {
	// Role is the serving phase this pool executes. Every replica engine
	// must be built with the same engine.Role. RoleMixed (zero value) is
	// monolithic serving.
	Role engine.Role
	// Replicas are the serving engines. Required, ≥ 1. Mixed hardware is
	// supported: the pool groups replicas into flavors (shared perf model +
	// capacity) and speed-normalizes probes, plans, and costs across them.
	Replicas []*engine.Engine
	// Policy selects the routing policy.
	Policy Policy
	// Scale enables threshold-reactive autoscaling. Mutually exclusive with
	// Planner; nil (with nil Planner) serves on all replicas.
	Scale *AutoScale
	// Planner enables the predictive SLA planner. In a disaggregated
	// cluster each pool carries its own planner, sized against the latency
	// phase it owns: TTFT interpolation for a prefill pool, TPOT for a
	// decode pool.
	Planner *PlannerConfig
	// AffinityWeight blends prefix-cache affinity into FutureHeadroom
	// routing: a replica's speed-normalized probe score is reduced by
	// AffinityWeight × the fraction of the request's prompt its resident
	// prefix cache can serve, so at comparable headroom the request lands
	// where its cached prefix already lives. The blend only orders
	// candidates — admission gates and fit thresholds stay on the raw
	// memory fraction, so affinity never makes an overflowing replica
	// admissible. 0 (the default) disables the blend, and with prefix
	// caching off every replica matches zero tokens, so routing is
	// bit-identical to the cache-blind policy either way.
	AffinityWeight float64
}

// flavor groups a pool's replicas that share one hardware deployment: the
// same perf model (GPU platform, TP degree, kernel efficiencies) and the
// same KV capacity. A homogeneous pool has exactly one flavor; a
// heterogeneous pool carries one per GPU type, and every structure that
// used to borrow replica 0's model — planner sizing, admission floors, KV
// transfer sizing, probe normalization — reads the owning replica's flavor
// instead. Replicas are grouped by perf-model identity (pointer) plus
// engine capacity: engines sharing one *perf.Model are one flavor.
type flavor struct {
	name     string
	pm       *perf.Model
	capacity int     // KV token capacity per replica (engine pool, override included)
	cost     float64 // normalized provisioning cost per replica-second (1.0 = A100-80G)
	relSpeed float64 // role-relevant throughput relative to the pool's fastest flavor
	reps     []*replica
	// xfer estimates the expected KV-transfer delay for a mean input length
	// when this flavor prefills into a disaggregated decode pool; nil = free.
	xfer func(isl float64) float64
	// chunkOver prices the per-chunk overhead of chunking a prompt of the
	// given length on this flavor's engines; nil when chunked prefill is
	// disabled, keeping every pre-chunking decision bit-identical.
	chunkOver func(promptTokens float64) float64
}

// FlavorInfo describes one replica flavor for reports and observers.
type FlavorInfo struct {
	// Name is the hardware display name (hw.Cluster.Name, e.g. "A100-80G").
	Name string
	// Replicas is how many of the pool's replicas run this flavor.
	Replicas int
	// CostWeight is the normalized cost per replica-second (1.0 = A100-80G).
	CostWeight float64
	// RelSpeed is the flavor's role-relevant throughput relative to the
	// pool's fastest flavor (1.0 = fastest), the probe-normalization factor.
	RelSpeed float64
}

// replica is the pool's bookkeeping around one engine. The fields a routing
// sweep reads of every replica it reaches lead, so that passing one over
// costs a cache line or two (see the warm probe state below).
type replica struct {
	flv    *flavor
	fresh  core.FreshQuantile
	lag    int
	static int
	peak   int
	maxRem int

	eng *engine.Engine
	idx int

	// The lifecycle (doc.go, "Replica lifecycle"). Pool.transition is the
	// only writer of phase, down and spans.
	phase    phase
	down     bool    // crashed, under repair (fault injection)
	wakeAt   float64 // when the last provisioning accepts traffic
	downAt   float64 // when the current down span began
	repairAt float64 // when the current repair completes (valid while down)

	routed    int
	pendingIn int // booked KV transfers in flight toward this replica

	// The replica's live step event (events.go): its sequence number (0: none)
	// and time, the end of the run of coasted steps its engine is on — or the
	// engine's clock when the next step does not coast. coastIdx is 1 + the
	// replica's position in Cluster.coasting while its engine trails stepAt,
	// else 0.
	stepSeq  int64
	stepAt   float64
	coastIdx int

	// Warm probe state: est holds a QuantileEntry for every request running
	// or waiting on the engine (engine.WaitingLen: queued, or placed by the
	// router and not yet queued), as of the last rebuild (Pool.rebuild). The
	// engine's changes reach it through moved and placed only:
	//
	//   - A placement splices its one entry in (Pool.placed), so the probe
	//     for the very next arrival already counts it.
	//   - A pure decode step (engine.StepPureDecode) leaves est alone and
	//     counts one more step of lag: every running request is one token
	//     further along its trajectory, which only shifts est's time axis, so
	//     est still bounds a probe from below (Pool.probeBound) and the
	//     replica is rebuilt only when that bound cannot rule it out. static
	//     counts the entries the shift does not apply to — the waiting set at
	//     the rebuild plus every splice since — each of which costs the bound
	//     up to lag tokens.
	//   - An admission step (engine.StepAdmitOnly) leaves est, lag and static
	//     alone: the requests it moved into the batch have the entries they
	//     had while waiting, and they stay static — from then on they grow by
	//     at most lag tokens less than the shift assumes.
	//   - Any other step, and a crash, clears estValid: the next probe
	//     rebuilds.
	//
	// peak and maxRem are est's Peak and MaxRemaining as of the last rebuild
	// or splice. They give the replica its floor (floor), a lower bound of its
	// exact probe for any candidate, and key is that floor as a fraction of
	// capacity: the replica's place in Pool.byFloor, the order bestProbe
	// sweeps in. An invalid estimator has no floor; its replica keeps its
	// place, under its last key, on Pool.stale until a rebuild re-keys it.
	//
	// sampler is a live view of the engine's history window, so est is only
	// as fresh as the window generation it was built at (estGen): the window
	// moves only inside a Step that finishes a request, which is never a pure
	// decode or admission step. fresh is that window's answer for a request
	// with nothing generated, read at the same generation, so pricing a new
	// arrival reads no window memory. memo holds est's PeakTerms for the
	// remaining length memoRem, the last one probed (noMemo when est changed
	// since), so a probe that asks for the same length again is two compares.
	// That takes a replica that neither stepped nor took a placement since its
	// previous probe, and two candidates whose predictions clamp to one value:
	// the same max_new_tokens cap at or under the window's quantile (all of
	// replay-day), or any two caps above it.
	est      core.PeakEstimator
	sampler  *dist.Sampler
	estGen   uint64
	estValid bool
	memoRem  int
	memo     core.PeakTerms
	key      float64
	pool     *Pool

	spans []billedSpan // the last one is open (to +Inf) while billed
}

// billedSpan is one stretch of time a replica was billed for.
type billedSpan struct{ from, to float64 }

// phase is where a replica stands in its provisioning lifecycle; down
// overlays it (doc.go, "Replica lifecycle").
type phase uint8

const (
	cold     phase = iota // not provisioned
	waking                // provisioned, its activation delay still running
	serving               // provisioned and taking traffic
	draining              // scaled in: takes no new traffic, goes cold once drained
)

// Pool owns one role's replicas: routing, warm probe state, and scaling
// mechanics. The cluster owns the shared event clock; the pool pushes its
// activation and tick events through it.
type Pool struct {
	cfg Config
	clu *Cluster
	id  int // pool index in the cluster

	reps    []*replica
	flavors []*flavor // replica flavor groups, in first-appearance order

	rr        int
	accepting []*replica // the replicas that accept, in index order
	// byFloor holds the accepting replicas ordered by (key, idx), the floor
	// of their probe; the keys sit in the slots, so neither a sweep's stop
	// test nor a repair reads a replica. floorPos is each replica's position
	// in it, -1 when it does not accept. stale lists the accepting replicas
	// whose estimators were invalidated since the last sweep (some since
	// rebuilt): each keeps its last key until then.
	byFloor  []floorSlot
	floorPos []int
	stale    []int
	sweep    sweepCount

	plan          *planner
	planScheduled bool
	flavActive    []int // scratch: counted replicas per flavor at tick time

	scaleUps int
	scaleIns int

	// onRoute, when non-nil, observes every routing decision into this pool
	// (pool-local replica index). Tests set it after NewCluster.
	onRoute func(r *request.Request, replica int)
}

// newPool validates one pool configuration and builds it into the cluster.
func newPool(c *Cluster, id int, cfg Config) (*Pool, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: pool %d: at least one replica required", id)
	}
	if cfg.Policy < RoundRobin || cfg.Policy > FutureHeadroom {
		return nil, fmt.Errorf("cluster: pool %d: unknown %v", id, cfg.Policy)
	}
	for i, e := range cfg.Replicas {
		if e == nil {
			return nil, fmt.Errorf("cluster: pool %d: replica %d has no engine", id, i)
		}
		if e.Role() != cfg.Role {
			return nil, fmt.Errorf("cluster: pool %d is %v but replica %d's engine is %v",
				id, cfg.Role, i, e.Role())
		}
	}
	if cfg.Scale != nil && cfg.Planner != nil {
		return nil, fmt.Errorf("cluster: reactive Scale and predictive Planner are mutually exclusive")
	}
	// Range checks are written as "inside" tests so that NaN, which fails
	// every comparison, is rejected with them.
	if !(cfg.AffinityWeight >= 0 && cfg.AffinityWeight < math.Inf(1)) {
		return nil, fmt.Errorf("cluster: affinity weight %v outside [0,+Inf)", cfg.AffinityWeight)
	}
	initial := len(cfg.Replicas)
	if cfg.Scale != nil {
		if cfg.Scale.Max < 1 || cfg.Scale.Max > len(cfg.Replicas) {
			return nil, fmt.Errorf("cluster: autoscale Max %d outside [1, %d replicas]",
				cfg.Scale.Max, len(cfg.Replicas))
		}
		if iv := cfg.Scale.EvalInterval; !(iv == 0 || iv >= minTickInterval && iv < math.Inf(1)) {
			return nil, fmt.Errorf("cluster: autoscale eval interval %v neither 0 nor in [%v,+Inf)", iv, minTickInterval)
		}
		if !(cfg.Scale.ActivationDelay >= 0 && cfg.Scale.ActivationDelay < math.Inf(1)) {
			return nil, fmt.Errorf("cluster: autoscale activation delay %v outside [0,+Inf)", cfg.Scale.ActivationDelay)
		}
		if math.IsNaN(cfg.Scale.HighWater) || math.IsNaN(cfg.Scale.LowWater) {
			return nil, fmt.Errorf("cluster: NaN autoscale water mark (%v, %v)", cfg.Scale.HighWater, cfg.Scale.LowWater)
		}
		initial = 1
	}
	p := &Pool{cfg: cfg, clu: c, id: id}
	if cfg.Planner != nil {
		pc := *cfg.Planner
		if err := pc.validate(len(cfg.Replicas)); err != nil {
			return nil, err
		}
		pc = pc.withDefaults()
		p.cfg.Planner = &pc
		initial = pc.Min
	}
	p.reps = make([]*replica, len(cfg.Replicas))
	for i, e := range cfg.Replicas {
		p.reps[i] = &replica{eng: e, idx: i, pool: p}
	}
	p.buildFlavors(c)
	if p.cfg.Planner != nil {
		p.plan = newPlanner(*p.cfg.Planner, p.flavors, cfg.Role)
		for _, rep := range p.reps {
			rep.eng.AddExitHook(func(_ float64, r *request.Request) {
				if r.Outcome != request.OutcomeCompleted {
					return
				}
				// A decode pool corrects on observed MTPOT — the metric it
				// owns: the delivery→next-token queueing gap that mean TPOT
				// amortises away is exactly what its sizing must absorb.
				tpot := r.TPOT()
				if cfg.Role == engine.RoleDecodeOnly {
					tpot = r.MTPOT()
				}
				p.plan.observeFinish(r.Generated, r.TTFT(), tpot)
			})
			if rep.eng.PrefixCacheEnabled() {
				// Feed the planner's hit-rate estimate so sizing prices the
				// uncached prefill suffix, not the full prompt. First-pass
				// admissions only: a re-admission after eviction re-reports
				// the same prompt, and a migrated request arrives with its
				// KV already in flight.
				rep.eng.AddAdmitHook(func(_ float64, round core.AdmitRound) {
					for _, r := range round.Admitted {
						if r.Admissions == 1 && !r.Migrated {
							p.plan.observeCacheHit(r.CachedTokens+r.RestoredTokens, r.InputLen)
						}
					}
				})
			}
		}
	}
	for _, rep := range p.reps[:initial] {
		p.transition(rep, math.Inf(-1), serving, false) // billed from the run's start
	}
	return p, nil
}

// buildFlavors groups the pool's replicas by hardware deployment and
// derives each flavor's cost weight and relative speed. Called once at
// construction, after the replica list exists.
func (p *Pool) buildFlavors(c *Cluster) {
	type key struct {
		pm       *perf.Model
		capacity int
	}
	seen := map[key]*flavor{}
	for _, rep := range p.reps {
		k := key{rep.eng.Perf(), rep.eng.Pool().CapacityTokens()}
		f := seen[k]
		if f == nil {
			f = &flavor{
				name:      k.pm.Cluster().Name(),
				pm:        k.pm,
				capacity:  k.capacity,
				cost:      k.pm.CostWeight(),
				xfer:      c.transferEstimate(k.pm.Spec().KVBytesPerToken()),
				chunkOver: rep.eng.ChunkOverheadCurve(),
			}
			seen[k] = f
			p.flavors = append(p.flavors, f)
		}
		f.reps = append(f.reps, rep)
		rep.flv = f
	}
	maxSpeed := 0.0
	for _, f := range p.flavors {
		f.relSpeed = p.flavorSpeed(f)
		if f.relSpeed > maxSpeed {
			maxSpeed = f.relSpeed
		}
	}
	// Normalize against the fastest flavor. A single-flavor pool divides a
	// value by itself, so relSpeed is exactly 1.0 and every speed-normalized
	// probe score is bit-identical to the raw memory fraction.
	for _, f := range p.flavors {
		f.relSpeed /= maxSpeed
	}
	p.flavActive = make([]int, len(p.flavors))
}

// speedRefPrompt / speedRefBatch fix the reference operating point the
// cross-flavor speed ratio is evaluated at. Any fixed point works — the
// ratio of two perf curves is what matters — and these sit in the middle of
// the ShareGPT shape the experiments serve.
const (
	speedRefPrompt = 512
	speedRefBatch  = 32
)

// flavorSpeed is the role-relevant service rate used to normalize
// FutureHeadroom probes across flavors: a 50%-full fast replica clears its
// predicted peak sooner than a 50%-full slow one, so raw memory fractions
// are not comparable across GPU types. Prefill pools rate by prompt
// latency; decode and mixed pools by decode-step throughput.
func (p *Pool) flavorSpeed(f *flavor) float64 {
	if p.cfg.Role == engine.RolePrefillOnly {
		return 1 / f.pm.PrefillTime(speedRefPrompt)
	}
	return float64(speedRefBatch) / f.pm.DecodeTime(speedRefBatch, speedRefBatch*speedRefPrompt)
}

// Flavors describes the pool's replica flavor groups.
func (p *Pool) Flavors() []FlavorInfo {
	out := make([]FlavorInfo, len(p.flavors))
	for i, f := range p.flavors {
		out[i] = FlavorInfo{Name: f.name, Replicas: len(f.reps), CostWeight: f.cost, RelSpeed: f.relSpeed}
	}
	return out
}

// activeByFlavor refreshes and returns the per-flavor counted replicas in
// flavor order — the planner tick's view of the fleet. The returned slice
// is pool-owned scratch, valid until the next call.
func (p *Pool) activeByFlavor() []int {
	for i, f := range p.flavors {
		n := 0
		for _, rep := range f.reps {
			if rep.counts() {
				n++
			}
		}
		p.flavActive[i] = n
	}
	return p.flavActive
}

// Role returns the pool's serving role.
func (p *Pool) Role() engine.Role { return p.cfg.Role }

// RoutedCounts returns how many requests each replica received.
func (p *Pool) RoutedCounts() []int {
	out := make([]int, len(p.reps))
	for i, rep := range p.reps {
		out[i] = rep.routed
	}
	return out
}

// ScaleEvents returns (scale-out, scale-in) decision counts.
func (p *Pool) ScaleEvents() (out, in int) { return p.scaleUps, p.scaleIns }

// ActiveReplicas returns the number of replicas the autoscalers count:
// waking or serving, and not down.
func (p *Pool) ActiveReplicas() int {
	n := 0
	for _, rep := range p.reps {
		if rep.counts() {
			n++
		}
	}
	return n
}

// ReplicaSeconds returns the billed time across the pool: the integral of
// the billed replica count over the run, the cost side of the autoscaling
// comparison. Complete after Serve returns.
func (p *Pool) ReplicaSeconds() float64 {
	sum := 0.0
	for _, rep := range p.reps {
		sum += rep.billedSecs(p.clu.startAt, p.clu.endAt)
	}
	return sum
}

// CostSeconds returns the normalized provisioning cost across the pool:
// each replica's billed-time integral scaled by its flavor's cost weight
// (1.0 = one A100-80G replica-second). For a single-A100 pool this equals
// ReplicaSeconds; for a mixed fleet it is the axis the cost-aware planner
// minimizes. Complete after Serve returns.
func (p *Pool) CostSeconds() float64 {
	sum := 0.0
	for _, rep := range p.reps {
		sum += rep.billedSecs(p.clu.startAt, p.clu.endAt) * rep.flv.cost
	}
	return sum
}

// PlanHistory returns the planner's evaluation trace (nil without a
// planner).
func (p *Pool) PlanHistory() []PlanSample {
	if p.plan == nil {
		return nil
	}
	return p.plan.History
}

// Imbalance returns the coefficient of variation of per-replica routed
// counts (0 = perfectly balanced). Only meaningful without autoscaling.
func (p *Pool) Imbalance() float64 {
	var sum float64
	for _, rep := range p.reps {
		sum += float64(rep.routed)
	}
	n := float64(len(p.reps))
	mean := sum / n
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, rep := range p.reps {
		d := float64(rep.routed) - mean
		ss += d * d
	}
	return math.Sqrt(ss/n) / mean
}

// minTickInterval is the shortest autoscaler tick period a pool accepts, in
// simulated seconds. A busy pool ticks every period, one event each: a period
// below a millisecond buys a policy nothing, and one below the clock's
// resolution lands each tick on the instant of the one before, so the event
// loop would tick forever without moving, the planner's history growing.
const minTickInterval = 1e-3

// tickInterval returns the pool's autoscaler tick period, 0 when untimed.
func (p *Pool) tickInterval() float64 {
	if p.plan != nil {
		return p.cfg.Planner.Interval
	}
	if p.cfg.Scale != nil {
		return p.cfg.Scale.EvalInterval
	}
	return 0
}

// ensureTick (re)arms the pool's periodic autoscaler tick after an arrival
// or delivery; ticks self-rearm while the cluster is busy and stop when it
// idles.
func (p *Pool) ensureTick(now float64) {
	if p.planScheduled {
		return
	}
	if iv := p.tickInterval(); iv > 0 {
		p.scheduleTick(now + iv)
	}
}

func (p *Pool) scheduleTick(at float64) {
	p.planScheduled = true
	p.clu.pushEvent(event{at: at, kind: evPlan, pool: p.id})
}

// transition is the one writer of a replica's lifecycle state: it moves rep
// to phase ph, down or not, at now. When billed flips it opens or closes
// the replica's billed span; when accepts flips it rebuilds the accepting
// set.
func (p *Pool) transition(rep *replica, now float64, ph phase, down bool) {
	billed, accepted := rep.billed(), rep.accepts()
	rep.phase, rep.down = ph, down
	switch {
	case !billed && rep.billed():
		rep.spans = append(rep.spans, billedSpan{now, math.Inf(1)})
	case billed && !rep.billed():
		rep.spans[len(rep.spans)-1].to = now
	}
	if rep.accepts() != accepted {
		p.rebuildAccepting()
	}
}

// billedSecs returns the replica's billed time inside [from, to].
func (rep *replica) billedSecs(from, to float64) float64 {
	secs := 0.0
	for _, s := range rep.spans {
		if d := min(s.to, to) - max(s.from, from); d > 0 {
			secs += d
		}
	}
	return secs
}

// wake provisions a cold or repaired replica at now: it is billed from now
// and serves once the pool's activation delay has run, at once without one.
func (p *Pool) wake(rep *replica, now float64) {
	delay := p.activationDelay()
	rep.wakeAt = now + delay
	if delay <= 0 {
		p.transition(rep, now, serving, false)
		return
	}
	p.transition(rep, now, waking, false)
	p.clu.pushEvent(event{at: rep.wakeAt, kind: evActivate, pool: p.id, rep: rep.idx})
}

// rebuildAccepting refreshes the routing candidate list. Called only when
// a replica starts or stops accepting, never per arrival.
func (p *Pool) rebuildAccepting() {
	p.accepting, p.byFloor = p.accepting[:0], p.byFloor[:0]
	for _, rep := range p.reps {
		if rep.accepts() {
			p.accepting = append(p.accepting, rep)
			p.byFloor = append(p.byFloor, floorSlot{rep.key, rep.idx})
		}
	}
	slices.SortFunc(p.byFloor, func(s, t floorSlot) int {
		if c := cmp.Compare(s.key, t.key); c != 0 {
			return c
		}
		return cmp.Compare(s.idx, t.idx)
	})
	if p.floorPos == nil {
		p.floorPos = make([]int, len(p.reps))
	}
	for i := range p.floorPos {
		p.floorPos[i] = -1
	}
	p.stale = p.stale[:0]
	for i, s := range p.byFloor {
		p.floorPos[s.idx] = i
		if !p.reps[s.idx].estValid {
			p.stale = append(p.stale, s.idx)
		}
	}
}

// billed, accepts and counts are the columns of doc.go's lifecycle table:
// whether a replica accrues replica-seconds, takes new traffic, and counts
// as capacity to the autoscalers.
func (rep *replica) billed() bool  { return rep.phase != cold && !rep.down }
func (rep *replica) accepts() bool { return rep.phase == serving && !rep.down }
func (rep *replica) counts() bool  { return (rep.phase == waking || rep.phase == serving) && !rep.down }

// fallbackReplica is the pick when no replica accepts (doc.go, "Replica
// lifecycle"): traffic is never dropped by the pool itself. Of down
// replicas it prefers one whose repair ends (work routed to it waits out
// the repair); the caller ends a request whose pick is down for good.
func (p *Pool) fallbackReplica() *replica {
	var down *replica
	for _, rep := range p.reps {
		if rep.phase == cold {
			continue
		}
		if !rep.down {
			return rep
		}
		if down == nil || down.downForGood() && !rep.downForGood() {
			down = rep
		}
	}
	if down != nil {
		return down
	}
	return p.reps[0]
}

// downForGood reports whether the replica is down with a repair that never
// ends: work placed on it would never run.
func (rep *replica) downForGood() bool {
	return rep.down && math.IsInf(rep.repairAt, 1)
}

// pick selects the replica for one request under the configured policy.
func (p *Pool) pick(req *request.Request) *replica {
	cands := p.accepting
	if len(cands) == 0 {
		return p.fallbackReplica()
	}
	switch p.cfg.Policy {
	case LeastLoaded:
		best, bestLoad := cands[0], math.MaxInt
		for _, rep := range cands {
			load := rep.eng.WaitingLen() + rep.eng.RunningLen()
			if load < bestLoad {
				best, bestLoad = rep, load
			}
		}
		return best
	case FutureHeadroom:
		best, _ := p.bestProbe(req, math.Inf(1))
		return best
	default: // RoundRobin — rotation starts at the first accepting replica
		rep := cands[p.rr%len(cands)]
		p.rr++
		return rep
	}
}

// routeTo records one routing decision whose replica was already chosen
// (cost-vector decode picks, admission placements reusing the gate's
// argmin, deliver-time re-routes).
func (p *Pool) routeTo(req *request.Request, rep *replica) {
	rep.routed++
	if p.onRoute != nil {
		p.onRoute(req, rep.idx)
	}
}

// probe returns the predicted future peak memory of everything on a replica
// — its running batch and its waiting set, which includes requests the
// router placed since the replica's last step — plus the candidate, as a
// fraction of its capacity. KV transfers still on the wire toward the
// replica (replica.pendingIn) are not counted. The warm path is
// allocation-free: the per-replica estimator is rebuilt in place only after
// the replica stepped, and the candidate is an O(log B) PeakWith at most.
func (p *Pool) probe(rep *replica, req *request.Request) float64 {
	p.ensureEst(rep)
	frac, _ := p.probeBound(rep, req)
	return frac
}

// probeBound is probe without the rebuild a lagging estimator would need: a
// lower bound of probe's value, and whether it is that value (always, for an
// estimator that does not lag).
//
// An estimator built lag pure decode steps ago describes memory over time
// from its own instant: an entry (C, R) holds C+τ tokens at τ ≤ R steps on.
// Seen from there, today's candidate (C, R) is (C−lag, R+lag). Every running
// request holds what its entry said it would, for at least as long — its
// conditional quantile never falls as it generates. Every static entry —
// waiting then, or spliced in since — has not grown meanwhile and holds up
// to lag tokens less than its entry says. The future peak M* is a maximum
// over time points of the sum, so PeakWith(C−lag, R+lag) − lag·static cannot
// exceed what a rebuild would answer, and equals it when nothing waits and
// no running request's clamped quantile moved.
func (p *Pool) probeBound(rep *replica, req *request.Request) (frac float64, exact bool) {
	if !rep.estValid {
		p.rebuild(rep)
	}
	return p.boundOf(rep, p.entry(rep, req))
}

// boundOf is probeBound over a valid estimator, for the candidate's entry e.
func (p *Pool) boundOf(rep *replica, e core.Entry) (frac float64, exact bool) {
	if rep.eng.History().Generation() != rep.estGen {
		// The candidate would be priced on a newer distribution than the
		// entries it is compared with: someone moved the window without
		// telling the replica (replica.moved).
		panic("cluster: routing probe over a history window that moved since the estimator was built")
	}
	k := rep.lag
	if rem := e.Remaining + k; rem != rep.memoRem {
		rep.memo, rep.memoRem = rep.est.Terms(rem), rem
	}
	peak := max(rep.memo.With(e.Current-k)-k*rep.static, 0)
	return float64(peak) / float64(rep.flv.capacity), k == 0
}

// floor is a lower bound of a valid estimator's exact probe for any
// candidate, in tokens. A rebuild now would hold at least peak − lag·static
// without the candidate — probeBound's time-shift argument with no candidate
// — and adding an entry whose Current is not negative never lowers M*.
func (rep *replica) floor() int {
	return max(rep.peak-rep.lag*rep.static, 0)
}

// floorWith is floor for one candidate entry e, in tokens, and a lower bound
// of probeBound's value too. A candidate whose shifted remaining e.Remaining
// + lag is at least est's longest is resident at every completion point, so
// PeakWith(e.Current − lag, e.Remaining + lag) ≥ peak + e.Current − lag; the
// term joins the floor before its clamp at 0, which static > 0 can cross.
func (rep *replica) floorWith(e core.Entry) int {
	if e.Remaining+rep.lag < rep.maxRem {
		return rep.floor()
	}
	return max(rep.peak-rep.lag*rep.static+e.Current-rep.lag, 0)
}

// probeQuantile is the conditional quantile every routing probe prices a
// request's output length at (core.PastFutureConfig's default).
const probeQuantile = 0.9

// entry is core.QuantileEntry over the window rebuild last read: from the
// recorded fresh-request quantile for a request that has generated nothing,
// from the live sampler for one that has (an orphan re-routed mid-output, a
// request already decoding on the replica).
func (p *Pool) entry(rep *replica, r *request.Request) core.Entry {
	if r.Generated == 0 {
		return rep.fresh.Entry(r)
	}
	return core.QuantileEntry(r, rep.sampler, probeQuantile)
}

// betterFit is the shared (fits, speed-normalized score) lexicographic
// ranking behind every flavor-aware replica choice: bestProbe's argmin —
// which is pick()'s FutureHeadroom arm and admission's placement — and the
// final tie-break of the decode cost vector. Like that vector it ranks fits
// first: speed never makes a predicted overflow fit, so a fitting slow
// replica always beats an overflowing fast one.
func betterFit(fits bool, score float64, bestFits bool, bestScore float64) bool {
	if fits != bestFits {
		return fits
	}
	return score < bestScore
}

// bestProbe returns the (fits, speed-normalized score) argmin among
// accepting replicas whose *raw* probe fraction passes the admission gate,
// together with the smallest raw fraction across all accepting replicas —
// the gate's signal: some replica can take the request iff that minimum is
// at or under the gate. gate = +Inf is the plain FutureHeadroom argmin,
// pick()'s ((nil, +Inf) when no replica accepts, e.g. everything is still
// activating), so an admission placement reusing the returned replica is
// decision-identical to routing again; a finite gate restricts the argmin to
// gate-passing replicas, which can diverge from pick() in a heterogeneous
// pool (a fast replica over the gate but under 1.0 is pickable yet not
// placeable — the gate is admission's stricter contract). Fits is a
// threshold on the raw fraction, so in a single-flavor pool (score ==
// fraction) the argmin is exactly the raw-fraction argmin.
//
// The sweep runs over probe bounds and repeats until it ends on values that
// hold (see settled): once for the argmin, once for the minimum. It visits the
// replicas in floor order (byFloor) and stops at the first whose floor rules
// out every replica from there on: over the running minimum, and over the gate
// or, at the fastest flavor's speed and the largest affinity bonus, unable to
// beat or tie the best (fits, score) found so far. Inside the sweep a replica
// whose candidate-aware floor (floorWith) rules it out likewise is passed over
// without a probe. Neither can change the result: a replica's probe is never
// below its floor, and a replica that cannot tie is not the argmin whatever
// the index order says. Replicas without a floor (stale), whose estimators a
// step invalidated, are rebuilt first, as any probe of them would be.
func (p *Pool) bestProbe(req *request.Request, gate float64) (*replica, float64) {
	for _, idx := range p.stale {
		if rep := p.reps[idx]; !rep.estValid && p.floorPos[idx] >= 0 {
			p.rebuild(rep)
		}
	}
	p.stale = p.stale[:0]
	bonus := p.affinityCap(req)
	p.sweep.sweeps++
	for {
		var bestRep, minRep *replica
		bestFits, bestScore, minFrac := false, math.Inf(1), math.Inf(1)
		bestFrac, bestExact, minExact := 0.0, true, true
		// beaten reports whether a replica whose probe is at least lo, at
		// relative speed speed, can neither pass the minimum nor take the argmin.
		beaten := func(lo, speed float64) bool {
			return lo > minFrac && (lo > gate || bestRep != nil && betterFit(bestFits, bestScore, lo <= 1, lo/speed-bonus))
		}
		for _, slot := range p.byFloor {
			if beaten(slot.key, 1) {
				break
			}
			rep := p.reps[slot.idx]
			p.sweep.reached++
			e := p.entry(rep, req)
			if beaten(float64(rep.floorWith(e))/float64(rep.flv.capacity), rep.flv.relSpeed) {
				continue
			}
			p.sweep.priced++
			f, exact := p.boundOf(rep, e)
			if f < minFrac || f == minFrac && (exact && !minExact || exact == minExact && rep.idx < minRep.idx) {
				minRep, minFrac, minExact = rep, f, exact
			}
			if f > gate {
				continue
			}
			fits := f <= 1
			score := f/rep.flv.relSpeed - p.affinity(rep, req)
			if bestRep == nil || betterFit(fits, score, bestFits, bestScore) ||
				fits == bestFits && score == bestScore && rep.idx < bestRep.idx {
				bestRep, bestFits, bestScore, bestFrac, bestExact = rep, fits, score, f, exact
			}
		}
		ok := p.settled(bestRep, req, bestFrac, bestExact)
		if minRep != bestRep {
			ok = p.settled(minRep, req, minFrac, minExact) && ok
		}
		if ok {
			return bestRep, minFrac
		}
	}
}

// sweepCount counts bestProbe's work: sweeps, the replicas they reached in
// floor order, and those of them a probe priced.
type sweepCount struct{ sweeps, reached, priced int }

// settled ends one sweep of a decision over probe bounds (probeBound) for a
// replica the sweep ended on, priced at frac: it reports whether frac is that
// replica's probe, rebuilding the replica when frac was only a bound. A nil
// replica (nothing passed the gate) priced exactly is trivially settled.
//
// Why that suffices. Every ranking built on probes — bestProbe's (fits,
// speed-normalized score) argmin and its raw-fraction minimum, pickDecode's
// (fits, delivery, score) vector — is monotone in the fraction, and a bound
// never exceeds the probe. A sweep that ends on a replica whose value holds
// therefore ends where a sweep over exact values would, index-order ties
// included: every other replica's probe is no smaller than the bound it lost
// with. Only the replicas a sweep ends on are rebuilt; when a rebuild moved
// the value the caller sweeps again, and since a rebuilt replica is exact
// from then on, the loop ends.
func (p *Pool) settled(rep *replica, req *request.Request, frac float64, exact bool) bool {
	return exact || p.probe(rep, req) == frac
}

// affinity is the prefix-cache routing bonus subtracted from a replica's
// speed-normalized probe score: AffinityWeight × the fraction of the
// request's prompt the replica's resident prefix blocks already hold. The
// match is an exact read-only probe of the replica's KV pool — only the
// memory fraction of a lagging replica is ever a bound. Exactly 0 whenever
// the blend is off, the request carries no prefix hashes, or caching is
// disabled — the score then reduces bit-identically to frac/relSpeed.
func (p *Pool) affinity(rep *replica, req *request.Request) float64 {
	if p.affinityCap(req) == 0 {
		return 0
	}
	hit := rep.eng.Pool().MatchPrefix(req.PrefixHashes)
	if hit == 0 {
		return 0
	}
	return p.affinityOf(req, min(hit, req.InputLen))
}

// affinityCap is the largest affinity any replica can grant req: the bonus
// of a replica holding its whole prompt, computed the way affinity computes
// it, so no replica's bonus exceeds it by a rounding.
func (p *Pool) affinityCap(req *request.Request) float64 {
	if p.cfg.AffinityWeight == 0 || len(req.PrefixHashes) == 0 || req.InputLen <= 0 {
		return 0
	}
	return p.affinityOf(req, req.InputLen)
}

func (p *Pool) affinityOf(req *request.Request, hit int) float64 {
	return p.cfg.AffinityWeight * float64(hit) / float64(req.InputLen)
}

// bestCachedTokens returns the largest prefix-cache coverage — resident
// hits plus restorable offloaded blocks — any accepting replica could serve
// for this request, capped at the prompt length. It is the admission
// floor's optimistic discount: the floor is a best-case bound, so it may
// assume the request routes to the best-matching replica and that restores
// are free (the engine prices them at wire time ≥ 0, which the floor
// omits; a restore it declines prefills instead, which the cache-blind
// term already covers). 0 whenever caching is off or the request carries
// no hashes, leaving the floor exactly at its cache-blind value.
func (p *Pool) bestCachedTokens(r *request.Request) int {
	if len(r.PrefixHashes) == 0 {
		return 0
	}
	best := 0
	for _, rep := range p.accepting {
		kvp := rep.eng.Pool()
		hit, off := kvp.MatchPrefixDetail(r.PrefixHashes)
		if t := (hit + off) * kvp.PrefixBlockTokens(); t > best {
			best = t
		}
	}
	if best > r.InputLen {
		best = r.InputLen
	}
	return best
}

// load returns the predicted peak of a replica's batch plus waiting set (no
// candidate) as a fraction of capacity — the reactive autoscaler's signal.
func (p *Pool) load(rep *replica) float64 {
	p.ensureEst(rep)
	return float64(rep.est.Peak()) / float64(rep.eng.Pool().CapacityTokens())
}

// ensureEst makes a replica's warm estimator exact: rebuilt if its engine
// stepped (or crashed) since it was built.
func (p *Pool) ensureEst(rep *replica) {
	if !rep.estValid || rep.lag > 0 {
		p.rebuild(rep)
	}
}

// rebuild reads a replica's warm probe state afresh from its engine.
func (p *Pool) rebuild(rep *replica) {
	rep.sampler = rep.eng.History().Sampler()
	rep.fresh = core.NewFreshQuantile(rep.sampler, probeQuantile)
	rep.estGen = rep.eng.History().Generation()
	rep.est.Reset()
	push := func(r *request.Request) {
		rep.est.Push(p.entry(rep, r))
	}
	rep.eng.ForEachRunning(push)
	rep.eng.ForEachWaiting(push)
	rep.estValid = true
	rep.lag, rep.static, rep.memoRem = 0, rep.eng.WaitingLen(), noMemo
	p.estimated(rep)
}

// estimated reads est's peak and longest remaining length after est changed
// and moves the replica to its new floor.
func (p *Pool) estimated(rep *replica) {
	rep.peak, rep.maxRem = rep.est.Peak(), rep.est.MaxRemaining()
	p.refloor(rep)
}

// noMemo is the memoRem of an estimator nobody has probed since it changed;
// no candidate's remaining length is negative.
const noMemo = -1

// moved tells the warm probe state that the replica's engine changed under
// it other than by a placement: after every Step — with what the engine's
// LastStep says it moved — and, with engine.StepOther, after a crash or
// anything else that leaves the estimator describing a batch that is gone.
// It is the only place that decides between keeping, lagging and
// rebuilding.
func (rep *replica) moved(step engine.StepKind) {
	switch step {
	case engine.StepPureDecode:
		rep.decoded(1)
	case engine.StepAdmitOnly:
		// Every entry est holds is unchanged, and so is its floor.
	default:
		if rep.estValid {
			rep.estValid = false
			rep.pool.unfloor(rep)
		}
	}
}

// decoded is moved(engine.StepPureDecode) n times over: the engine took n
// pure decode steps — the coasted steps of a run the cluster caught the
// replica up on.
func (rep *replica) decoded(n int) {
	if rep.estValid {
		rep.lag += n
		if rep.static > 0 {
			rep.pool.refloor(rep)
		}
	}
}

// placed keeps a replica's warm estimator equal to a rebuild after the
// router submitted req to its engine: the request now sits in the engine's
// waiting set, so its entry is spliced into the sorted estimator (one binary
// search, one copy, no allocation) and the next probe — possibly for an
// arrival at this same instant — prices the replica with req on it. Spliced
// into a lagging estimator it is one more static entry. An estimator that is
// already stale (the replica stepped, or its window moved) stays stale: the
// next probe's rebuild walks the waiting set and finds req there. Every
// placement path calls this right after its Submit.
func (p *Pool) placed(rep *replica, req *request.Request) {
	if rep.estValid && rep.estGen == rep.eng.History().Generation() {
		rep.est.Push(p.entry(rep, req))
		rep.static++
		rep.memoRem = noMemo
		p.estimated(rep)
	} else {
		rep.moved(engine.StepOther)
	}
}

// refloor recomputes the key of a replica with a valid estimator after the
// estimator, its lag or its static count changed, and moves the replica to
// its new place in byFloor.
func (p *Pool) refloor(rep *replica) {
	key := float64(rep.floor()) / float64(rep.flv.capacity)
	if key == rep.key {
		return
	}
	rep.key = key
	// A copy of a replica (a test's scratch estimator) has no place.
	i := p.floorPos[rep.idx]
	if i < 0 || p.reps[rep.idx] != rep {
		return
	}
	// One insertion-sort pass: the floor of a decode step moves a place or
	// two, a rebuild as far as the batch moved since the replica's last key.
	now := floorSlot{key, rep.idx}
	for ; i > 0 && now.before(p.byFloor[i-1]); i-- {
		p.byFloor[i] = p.byFloor[i-1]
		p.floorPos[p.byFloor[i].idx] = i
	}
	for ; i+1 < len(p.byFloor) && p.byFloor[i+1].before(now); i++ {
		p.byFloor[i] = p.byFloor[i+1]
		p.floorPos[p.byFloor[i].idx] = i
	}
	p.byFloor[i] = now
	p.floorPos[rep.idx] = i
}

// unfloor puts an accepting replica whose estimator was just invalidated on
// the stale list; it keeps its place until a rebuild re-keys it.
func (p *Pool) unfloor(rep *replica) {
	if p.floorPos[rep.idx] >= 0 && p.reps[rep.idx] == rep {
		p.stale = append(p.stale, rep.idx)
	}
}

// floorSlot is one replica's place in byFloor: its key and its index.
type floorSlot struct {
	key float64
	idx int
}

// before is byFloor's order: by key, then by index.
func (s floorSlot) before(t floorSlot) bool {
	return s.key < t.key || s.key == t.key && s.idx < t.idx
}

// reactiveScale applies the high/low-water policy on the mean predicted
// load of the accepting replicas (the original router's autoscaler). On a
// heterogeneous pool the choice of *which* replica is cost-aware: scale-out
// buys the cheapest cold flavor, scale-in sheds the worst cost-per-goodput
// drained replica. Homogeneous pools reduce to the original index-order
// policy (all costs tie, and ties keep the pre-flavor pick).
func (p *Pool) reactiveScale(now float64) {
	sc := p.cfg.Scale
	if len(p.accepting) == 0 {
		return
	}
	var loadSum float64
	for _, rep := range p.accepting {
		loadSum += p.load(rep)
	}
	mean := loadSum / float64(len(p.accepting))
	if mean > sc.HighWater && p.ActiveReplicas() < sc.Max {
		if rep := p.cheapestCold(); rep != nil {
			p.scaleUps++
			p.wake(rep, now)
		}
		return
	}
	if mean < sc.LowWater && p.ActiveReplicas() > 1 {
		// Deactivate a fully drained replica. Idle() (not just empty
		// queue+batch) so a replica with a routed arrival still in its
		// arrival heap keeps its replica-seconds clock running.
		if rep := p.costliestDrained(); rep != nil {
			p.scaleIns++
			p.transition(rep, now, cold, false)
		}
	}
}

// cheapestCold returns the cold replica with the lowest flavor cost weight
// (ties: lowest index, the pre-flavor order), or nil when every replica is
// provisioned or down.
func (p *Pool) cheapestCold() *replica {
	var best *replica
	for _, rep := range p.reps {
		if rep.phase != cold || rep.down {
			continue
		}
		if best == nil || rep.flv.cost < best.flv.cost {
			best = rep
		}
	}
	return best
}

// costliestDrained returns the provisioned, fully drained replica with the
// highest cost per unit of role-relevant throughput — flavor cost weight
// over relative speed — so reactive scale-in sheds the least
// cost-effective capacity first. Ties keep the highest index, the
// pre-flavor pick. nil when nothing is drained.
func (p *Pool) costliestDrained() *replica {
	var best *replica
	var bestRatio float64
	for i := len(p.reps) - 1; i >= 0; i-- {
		rep := p.reps[i]
		if rep.phase == cold || rep.down || !p.drained(rep) {
			continue
		}
		ratio := rep.flv.cost / rep.flv.relSpeed
		if best == nil || ratio > bestRatio {
			best, bestRatio = rep, ratio
		}
	}
	return best
}

// applyTargets moves the pool toward the planner's per-flavor replica
// targets (flavor order), applying the scalar rule within each flavor's
// replica subset. A single-flavor pool reduces to the pre-flavor pool-wide
// applyTarget: the one subset is the whole replica list in index order.
func (p *Pool) applyTargets(now float64, targets []int) {
	for i, f := range p.flavors {
		p.applyTarget(now, targets[i], f.reps)
	}
}

// applyTarget moves one replica subset toward its target count: cancel
// draining first (warm capacity), then activate cold replicas; scale in by
// retiring idle replicas immediately and draining busy ones.
func (p *Pool) applyTarget(now float64, target int, reps []*replica) {
	active := 0
	for _, rep := range reps {
		if rep.counts() {
			active++
		}
	}
	for ; active < target; active++ {
		var spare *replica
		for _, rep := range reps {
			if rep.phase == draining {
				spare = rep
				break
			}
			if spare == nil && rep.phase == cold && !rep.down {
				spare = rep
			}
		}
		switch {
		case spare == nil:
			return
		case spare.phase == draining:
			// Back to waking if it was drained before its wake: evActivate
			// sorts before this tick, so a wake at or before now has fired.
			ph := serving
			if spare.wakeAt > now {
				ph = waking
			}
			p.transition(spare, now, ph, false)
		default:
			p.wake(spare, now)
		}
		p.scaleUps++
	}
	for ; active > target; active-- {
		rep := p.scaleInVictim(reps)
		if rep == nil {
			return
		}
		p.scaleIns++
		ph := draining
		if p.drained(rep) {
			ph = cold
		}
		p.transition(rep, now, ph, false)
	}
}

// drained reports whether a replica holds no work now or in flight toward
// it: its engine is idle and no booked KV transfer is still on the wire (a
// pending migration is invisible to the engine until delivery, but retiring
// its destination would strand it).
func (p *Pool) drained(rep *replica) bool {
	return rep.pendingIn == 0 && rep.eng.Idle()
}

// scaleInVictim picks the next replica to scale in from one subset: the
// highest-index idle one, else the highest-index busy one (which will drain).
func (p *Pool) scaleInVictim(reps []*replica) *replica {
	var busy *replica
	for i := len(reps) - 1; i >= 0; i-- {
		if rep := reps[i]; rep.counts() && p.drained(rep) {
			return rep
		} else if busy == nil && rep.counts() {
			busy = rep
		}
	}
	return busy
}

// activationDelay is the pool's configured activation delay (from the SLA
// planner or the reactive policy; 0 without an autoscaler), paid by every
// wake.
func (p *Pool) activationDelay() float64 {
	if p.cfg.Planner != nil {
		return p.cfg.Planner.ActivationDelay
	}
	if p.cfg.Scale != nil {
		return p.cfg.Scale.ActivationDelay
	}
	return 0
}
