package cluster

import (
	"fmt"
	"math"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/obs"
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

// ParsePolicy resolves a policy name (CLI flags), inverse of String.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range []Policy{RoundRobin, LeastLoaded, FutureHeadroom} {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown policy %q (round-robin, least-loaded, future-headroom)", s)
}

// AutoScale is the threshold-reactive scaling policy: scale out when the
// mean predicted load of the accepting replicas exceeds HighWater, scale in
// (one drained replica at a time) when it falls below LowWater. It is the
// baseline the predictive planner is measured against.
type AutoScale struct {
	// Min and Max bound the active replica count.
	Min, Max int
	// HighWater: scale out when mean predicted load across accepting
	// replicas exceeds this fraction (e.g. 0.85).
	HighWater float64
	// LowWater: scale in when mean predicted load falls below this
	// fraction (e.g. 0.30) and a replica is drained.
	LowWater float64
	// ActivationDelay is the simulated seconds between a scale-out decision
	// and the replica accepting traffic (model load time).
	ActivationDelay float64
	// EvalInterval, when positive, additionally evaluates the thresholds on
	// a periodic tick (so the policy can scale in while traffic drains, not
	// only at arrivals). 0 evaluates at arrivals only — the original
	// router behavior.
	EvalInterval float64
}

// Config configures one Pool: a set of same-role replicas behind a routing
// policy with optional autoscaling. It doubles as the Fleet configuration —
// a monolithic fleet *is* the one-pool RoleMixed cluster.
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
	// Quantile for FutureHeadroom predictions. 0 selects 0.9.
	Quantile float64
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
	// NaiveProbe computes every FutureHeadroom probe and reactive load with
	// the reference core.PredictedBatchPeak (one estimator clone+sort per
	// probe) instead of the warm per-replica estimators. The decisions are
	// identical either way; this switch exists as the benchmark baseline
	// and for cross-check tests.
	NaiveProbe bool
	// HomogeneousPlan sizes the SLA planner with the pre-flavor scalar rule
	// — every replica assumed identical to replica 0 — instead of the
	// flavor-aware vector sizing. The two are decision-identical on
	// single-flavor pools; this switch is the cross-check baseline for the
	// refactor-seam equivalence tests (the planner's NaiveProbe). Rejected
	// on pools with more than one flavor.
	HomogeneousPlan bool
	// Admission enables cluster-front admission control when this Config
	// builds the monolithic Fleet (cluster.New) or the router adapter — the
	// same pipeline ClusterConfig.Admission gives an explicit cluster.
	// Inside an explicit ClusterConfig the pipeline is cluster-wide, so
	// pool-level Admission must be nil there (NewCluster rejects it).
	Admission *AdmissionConfig
	// Recorder attaches the observability layer when this Config builds the
	// monolithic Fleet (cluster.New) — the same stream
	// ClusterConfig.Recorder gives an explicit cluster. Like Admission it is
	// a cluster-wide concern: inside an explicit ClusterConfig a pool-level
	// Recorder is rejected.
	Recorder obs.Recorder
	// OnRoute, when non-nil, observes every routing decision into this pool
	// (pool-local replica index).
	OnRoute func(r *request.Request, replica int)
	// Workers selects the simulation core when this Config builds the
	// monolithic Fleet (cluster.New) — the same switch
	// ClusterConfig.Workers gives an explicit cluster. Like Admission it is
	// a cluster-wide concern: inside an explicit ClusterConfig a pool-level
	// worker count is rejected.
	Workers int
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

// replica is the pool's bookkeeping around one engine.
type replica struct {
	eng *engine.Engine
	idx int
	flv *flavor

	active   bool    // provisioned (may still be activating)
	awake    bool    // activation delay elapsed; eligible for traffic
	draining bool    // scaling in: no new traffic, retires when drained
	wakeAt   float64 // activation time of the pending/last activation
	down     bool    // crashed, under repair (fault injection); unroutable
	downAt   float64 // when the current down span began
	repairAt float64 // when the current repair completes (valid while down)

	routed    int
	inHeap    bool // a step event for this replica is in the event heap
	pendingIn int  // booked KV transfers in flight toward this replica

	// buf defers the engine's step effects (hooks, recorder emissions) for
	// in-order replay by the batched core; nil on the reference path.
	buf *engine.EffectBuffer

	// Warm probe state: est holds a QuantileEntry for every request running
	// or waiting on the engine (engine.WaitingLen: queued, or placed by the
	// router and not yet queued), as of the last rebuild (Pool.rebuild). The
	// engine's changes reach it through moved and placed only:
	//
	//   - A placement splices its one entry in (Pool.placed), so the probe
	//     for the very next arrival already counts it.
	//   - A pure decode step (engine.PureDecodeLastStep) leaves est alone and
	//     counts one more step of lag: every running request is one token
	//     further along its trajectory, which only shifts est's time axis, so
	//     est still bounds a probe from below (Pool.probeBound) and the
	//     replica is rebuilt only when that bound cannot rule it out. static
	//     counts the entries the shift does not apply to — the waiting set at
	//     the rebuild plus every splice since — each of which costs the bound
	//     up to lag tokens.
	//   - Any other step, and a crash, clears estValid: the next probe
	//     rebuilds.
	//
	// sampler is a live view of the engine's history window, so est is only
	// as fresh as the window generation it was built at (estGen): the window
	// moves only inside a Step that finishes a request, which is never a pure
	// decode step. fresh is that window's answer for a request with nothing
	// generated, read at the same generation, so pricing a new arrival reads
	// no window memory. memo holds est's PeakTerms for the remaining length
	// memoRem, the last one probed (noMemo when est changed since), so a
	// probe that asks for the same length again is two compares. That takes a
	// replica that neither stepped nor took a placement since its previous
	// probe, and two candidates whose predictions clamp to one value: the
	// same max_new_tokens cap at or under the window's quantile (all of
	// replay-day), or any two caps above it. Counted at seed 1, 88% of
	// replay-day's probes hit (9% ask for another length, 3% find noMemo) and
	// 54% of storm-product's (34%, 12%); against probing through PeakWith
	// that is ×1.08 of replay-day's requests_per_s in 10 of 10 alternating
	// pairs and nothing either way on storm-product (CHANGES.md, PR 21).
	est      core.PeakEstimator
	sampler  *dist.Sampler
	fresh    core.FreshQuantile
	estGen   uint64
	estValid bool
	lag      int
	static   int
	memoRem  int
	memo     core.PeakTerms

	activeAt   float64 // when the current active span began
	activeSecs float64 // closed active spans (replica-seconds accounting)
}

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
	accepting []*replica // active, awake, not draining; index order

	plan          *planner
	planScheduled bool
	flavActive    []int // scratch: active replica count per flavor at tick time

	scaleUps int
	scaleIns int
}

// newPool validates one pool configuration and builds it into the cluster.
func newPool(c *Cluster, id int, cfg Config) (*Pool, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: pool %d: at least one replica required", id)
	}
	for i, e := range cfg.Replicas {
		if e.Role() != cfg.Role {
			return nil, fmt.Errorf("cluster: pool %d is %v but replica %d's engine is %v",
				id, cfg.Role, i, e.Role())
		}
	}
	if cfg.Quantile == 0 {
		cfg.Quantile = 0.9
	}
	if cfg.Quantile < 0 || cfg.Quantile > 1 {
		return nil, fmt.Errorf("cluster: quantile %v outside [0,1]", cfg.Quantile)
	}
	if cfg.Scale != nil && cfg.Planner != nil {
		return nil, fmt.Errorf("cluster: reactive Scale and predictive Planner are mutually exclusive")
	}
	if cfg.AffinityWeight < 0 {
		return nil, fmt.Errorf("cluster: negative affinity weight %v", cfg.AffinityWeight)
	}
	initial := len(cfg.Replicas)
	if cfg.Scale != nil {
		if cfg.Scale.Min < 1 || cfg.Scale.Max > len(cfg.Replicas) || cfg.Scale.Min > cfg.Scale.Max {
			return nil, fmt.Errorf("cluster: bad autoscale bounds [%d, %d] for %d replicas",
				cfg.Scale.Min, cfg.Scale.Max, len(cfg.Replicas))
		}
		if cfg.Scale.EvalInterval < 0 {
			return nil, fmt.Errorf("cluster: negative autoscale eval interval %v", cfg.Scale.EvalInterval)
		}
		initial = cfg.Scale.Min
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
		p.reps[i] = &replica{eng: e, idx: i}
	}
	for i := 0; i < initial; i++ {
		p.reps[i].active = true
		p.reps[i].awake = true
	}
	p.buildFlavors(c)
	if cfg.HomogeneousPlan && len(p.flavors) > 1 {
		return nil, fmt.Errorf("cluster: pool %d: HomogeneousPlan is the single-flavor reference, pool has %d flavors", id, len(p.flavors))
	}
	if p.cfg.Planner != nil {
		p.plan = newPlanner(*p.cfg.Planner, p.flavors, cfg.Role, cfg.HomogeneousPlan)
		for _, rep := range p.reps {
			rep.eng.AddFinishHook(func(_ float64, r *request.Request) {
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
				rep.eng.AddAdmitHook(func(_ float64, admitted []*request.Request) {
					for _, r := range admitted {
						if r.Admissions == 1 && !r.Migrated {
							p.plan.observeCacheHit(r.CachedTokens+r.RestoredTokens, r.InputLen)
						}
					}
				})
			}
		}
	}
	p.rebuildAccepting()
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

// activeByFlavor refreshes and returns the per-flavor active (non-draining)
// replica counts in flavor order — the planner tick's view of the fleet.
// The returned slice is pool-owned scratch, valid until the next call.
func (p *Pool) activeByFlavor() []int {
	for i, f := range p.flavors {
		n := 0
		for _, rep := range f.reps {
			if rep.active && !rep.draining && !rep.down {
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

// ActiveReplicas returns the number of provisioned, non-draining replicas.
// A crashed replica under repair does not count: it serves nothing, and the
// planner's view of the fleet must see the capacity hole the crash tore.
func (p *Pool) ActiveReplicas() int {
	n := 0
	for _, rep := range p.reps {
		if rep.active && !rep.draining && !rep.down {
			n++
		}
	}
	return n
}

// ReplicaSeconds returns the accumulated provisioned time across the pool:
// the integral of the active replica count over the run, the cost side of
// the autoscaling comparison. Complete after Serve returns.
func (p *Pool) ReplicaSeconds() float64 {
	sum := 0.0
	for _, rep := range p.reps {
		sum += rep.activeSecs
	}
	return sum
}

// CostSeconds returns the normalized provisioning cost across the pool:
// each replica's active-time integral scaled by its flavor's cost weight
// (1.0 = one A100-80G replica-second). For a single-A100 pool this equals
// ReplicaSeconds; for a mixed fleet it is the axis the cost-aware planner
// minimizes. Complete after Serve returns.
func (p *Pool) CostSeconds() float64 {
	sum := 0.0
	for _, rep := range p.reps {
		sum += rep.activeSecs * rep.flv.cost
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

// rebuildAccepting refreshes the routing candidate list. Called only when
// the activation state changes, never per arrival.
func (p *Pool) rebuildAccepting() {
	p.accepting = p.accepting[:0]
	for _, rep := range p.reps {
		if rep.active && rep.awake && !rep.draining && !rep.down {
			p.accepting = append(p.accepting, rep)
		}
	}
}

// fallbackReplica is the no-accepting-replica escape hatch: every
// provisioned replica is still activating (or draining), so fall back to
// the first active one — traffic is never dropped by the pool itself. A
// crashed replica is the last resort of the last resort: only when every
// replica is down does the pool hand one back (work routed to it waits out
// the repair; recovery re-arms its step events).
func (p *Pool) fallbackReplica() *replica {
	for _, rep := range p.reps {
		if rep.active && !rep.down {
			return rep
		}
	}
	for _, rep := range p.reps {
		if rep.active {
			return rep
		}
	}
	return p.reps[0]
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

// route records and executes one routing decision into the pool.
func (p *Pool) route(req *request.Request) *replica {
	rep := p.pick(req)
	p.routeTo(req, rep)
	return rep
}

// routeTo records one routing decision whose replica was already chosen
// (cost-vector decode picks, admission placements reusing the gate's
// argmin, deliver-time re-routes).
func (p *Pool) routeTo(req *request.Request, rep *replica) {
	rep.routed++
	if p.cfg.OnRoute != nil {
		p.cfg.OnRoute(req, rep.idx)
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
	if !p.cfg.NaiveProbe {
		p.ensureEst(rep)
	}
	frac, _ := p.probeBound(rep, req)
	return frac
}

// probeBound is probe without the rebuild a lagging estimator would need: a
// lower bound of probe's value, and whether it is that value (always, for an
// estimator that does not lag, and for the NaiveProbe reference).
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
	if p.cfg.NaiveProbe {
		batch := append(rep.eng.RunningRequests(), rep.eng.WaitingRequests()...)
		batch = append(batch, req)
		peak := core.PredictedBatchPeak(batch, rep.eng.History(), p.cfg.Quantile)
		return float64(peak) / float64(rep.eng.Pool().CapacityTokens()), true
	}
	if !rep.estValid {
		p.rebuild(rep)
	}
	if rep.eng.History().Generation() != rep.estGen {
		// The candidate would be priced on a newer distribution than the
		// entries it is compared with: someone moved the window without
		// telling the replica (replica.moved).
		panic("cluster: routing probe over a history window that moved since the estimator was built")
	}
	e, k := p.entry(rep, req), rep.lag
	if rem := e.Remaining + k; rem != rep.memoRem {
		rep.memo, rep.memoRem = rep.est.Terms(rem), rem
	}
	peak := max(rep.memo.With(e.Current-k)-k*rep.static, 0)
	return float64(peak) / float64(rep.flv.capacity), k == 0
}

// entry is core.QuantileEntry over the window rebuild last read: from the
// recorded fresh-request quantile for a request that has generated nothing,
// from the live sampler for one that has (an orphan re-routed mid-output, a
// request already decoding on the replica).
func (p *Pool) entry(rep *replica, r *request.Request) core.Entry {
	if r.Generated == 0 {
		return rep.fresh.Entry(r)
	}
	return core.QuantileEntry(r, rep.sampler, p.cfg.Quantile)
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
// A replica whose estimator lags is priced by its lower bound first
// (probeBound). Both rankings are monotone in the fraction, so a sweep over
// bounds and exact values that ends on exact ones — for the argmin and for
// the minimum — ends where a sweep over exact values would, index-order ties
// included: every other replica's true fraction is no smaller than what it
// lost with. Only the replicas a sweep ends on are rebuilt, and the sweep
// repeats only if that moved their value.
func (p *Pool) bestProbe(req *request.Request, gate float64) (*replica, float64) {
	for {
		var bestRep, minRep *replica
		bestFits, bestScore, minFrac := false, math.Inf(1), math.Inf(1)
		bestFrac, bestExact, minExact := 0.0, true, true
		for _, rep := range p.accepting {
			f, exact := p.probeBound(rep, req)
			if f < minFrac || (f == minFrac && exact && !minExact) {
				minRep, minFrac, minExact = rep, f, exact
			}
			if f > gate {
				continue
			}
			fits := f <= 1
			score := f/rep.flv.relSpeed - p.affinity(rep, req)
			if bestRep == nil || betterFit(fits, score, bestFits, bestScore) {
				bestRep, bestFits, bestScore, bestFrac, bestExact = rep, fits, score, f, exact
			}
		}
		settled := true
		if !bestExact {
			settled = p.probe(bestRep, req) == bestFrac
		}
		if !minExact && minRep != bestRep {
			settled = p.probe(minRep, req) == minFrac && settled
		}
		if settled {
			return bestRep, minFrac
		}
	}
}

// affinity is the prefix-cache routing bonus subtracted from a replica's
// speed-normalized probe score: AffinityWeight × the fraction of the
// request's prompt the replica's resident prefix blocks already hold. The
// match is an exact read-only probe of the replica's KV pool — only the
// memory fraction of a lagging replica is ever a bound. Exactly 0 whenever
// the blend is off, the request carries no prefix hashes, or caching is
// disabled — the score then reduces bit-identically to frac/relSpeed.
func (p *Pool) affinity(rep *replica, req *request.Request) float64 {
	w := p.cfg.AffinityWeight
	if w == 0 || len(req.PrefixHashes) == 0 || req.InputLen <= 0 {
		return 0
	}
	hit := rep.eng.Pool().MatchPrefix(req.PrefixHashes)
	if hit == 0 {
		return 0
	}
	if hit > req.InputLen {
		hit = req.InputLen
	}
	return w * float64(hit) / float64(req.InputLen)
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
	if p.cfg.NaiveProbe {
		batch := append(rep.eng.RunningRequests(), rep.eng.WaitingRequests()...)
		peak := core.PredictedBatchPeak(batch, rep.eng.History(), p.cfg.Quantile)
		return float64(peak) / float64(rep.eng.Pool().CapacityTokens())
	}
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
	rep.fresh = core.NewFreshQuantile(rep.sampler, p.cfg.Quantile)
	rep.estGen = rep.eng.History().Generation()
	rep.est.Reset()
	push := func(r *request.Request) {
		rep.est.Push(p.entry(rep, r))
	}
	rep.eng.ForEachRunning(push)
	rep.eng.ForEachWaiting(push)
	rep.estValid = true
	rep.lag, rep.static, rep.memoRem = 0, rep.eng.WaitingLen(), noMemo
}

// noMemo is the memoRem of an estimator nobody has probed since it changed;
// no candidate's remaining length is negative.
const noMemo = -1

// moved tells the warm probe state that the replica's engine changed under
// it other than by a placement: after every Step — pureDecode is the
// engine's PureDecodeLastStep — and, with pureDecode false, after a crash or
// anything else that leaves the estimator describing a batch that is gone.
// It is the only place that decides between lagging and rebuilding.
func (rep *replica) moved(pureDecode bool) {
	if pureDecode && rep.estValid {
		rep.lag++
		return
	}
	rep.estValid = false
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
	} else {
		rep.moved(false)
	}
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
			p.activate(rep, now, sc.ActivationDelay)
		}
		return
	}
	if mean < sc.LowWater && p.ActiveReplicas() > sc.Min {
		// Deactivate a fully drained replica. Idle() (not just empty
		// queue+batch) so a replica with a routed arrival still in its
		// arrival heap keeps its replica-seconds clock running.
		if rep := p.costliestDrained(); rep != nil {
			p.scaleIns++
			p.retire(rep, now)
		}
	}
}

// cheapestCold returns the cold replica with the lowest flavor cost weight
// (ties: lowest index, the pre-flavor order), or nil when every replica is
// provisioned or down.
func (p *Pool) cheapestCold() *replica {
	var best *replica
	for _, rep := range p.reps {
		if rep.active || rep.down {
			continue
		}
		if best == nil || rep.flv.cost < best.flv.cost {
			best = rep
		}
	}
	return best
}

// costliestDrained returns the active, fully drained replica with the
// highest cost per unit of role-relevant throughput — flavor cost weight
// over relative speed — so reactive scale-in sheds the least
// cost-effective capacity first. Ties keep the highest index, the
// pre-flavor pick. nil when nothing is drained.
func (p *Pool) costliestDrained() *replica {
	var best *replica
	var bestRatio float64
	for i := len(p.reps) - 1; i >= 0; i-- {
		rep := p.reps[i]
		if !rep.active || rep.down || !p.drained(rep) {
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
		if rep.active && !rep.draining && !rep.down {
			active++
		}
	}
	for active < target {
		undrained := false
		for _, rep := range reps {
			if rep.active && rep.draining {
				rep.draining = false
				p.scaleUps++
				p.rebuildAccepting()
				undrained = true
				break
			}
		}
		if undrained {
			active++
			continue
		}
		var cold *replica
		for _, rep := range reps {
			if !rep.active && !rep.down {
				cold = rep
				break
			}
		}
		if cold == nil {
			return
		}
		p.activate(cold, now, p.cfg.Planner.ActivationDelay)
		active++
	}
	for active > target {
		rep := p.scaleInVictim(reps)
		if rep == nil {
			return
		}
		p.scaleIns++
		if p.drained(rep) {
			p.retire(rep, now)
		} else {
			rep.draining = true
			p.rebuildAccepting()
		}
		active--
	}
}

// drained reports whether a replica holds no work now or in flight toward
// it: its engine is idle and no booked KV transfer is still on the wire (a
// pending migration is invisible to the engine until delivery, but retiring
// its destination would strand it).
func (p *Pool) drained(rep *replica) bool {
	return rep.pendingIn == 0 && rep.eng.Idle()
}

// scaleInVictim picks the next replica to scale in from one subset: idle
// ones first, then the highest-index busy one (which will drain).
func (p *Pool) scaleInVictim(reps []*replica) *replica {
	for i := len(reps) - 1; i >= 0; i-- {
		rep := reps[i]
		if rep.active && !rep.draining && !rep.down && p.drained(rep) {
			return rep
		}
	}
	for i := len(reps) - 1; i >= 0; i-- {
		rep := reps[i]
		if rep.active && !rep.draining && !rep.down {
			return rep
		}
	}
	return nil
}

// activate provisions a replica: it starts paying replica-seconds now and
// accepts traffic after the activation delay.
func (p *Pool) activate(rep *replica, now, delay float64) {
	rep.active = true
	rep.draining = false
	rep.activeAt = now
	p.scaleUps++
	if delay <= 0 {
		rep.awake = true
		rep.wakeAt = now
		p.rebuildAccepting()
		return
	}
	rep.awake = false
	rep.wakeAt = now + delay
	p.clu.pushEvent(event{at: rep.wakeAt, kind: evActivate, pool: p.id, rep: rep.idx})
}

// retire closes a replica's active span (scale-in decision already
// counted). A crashed replica's span was already closed at the crash, and
// its repair time is never billed.
func (p *Pool) retire(rep *replica, now float64) {
	if !rep.active {
		return
	}
	rep.active = false
	rep.awake = false
	rep.draining = false
	if !rep.down {
		if span := now - rep.activeAt; span > 0 {
			rep.activeSecs += span
		}
	}
	p.rebuildAccepting()
}

// activationDelay is the pool's configured activation delay (from the SLA
// planner or the reactive policy; 0 without an autoscaler). It is also the
// re-activation price a repaired replica pays before accepting traffic.
func (p *Pool) activationDelay() float64 {
	if p.cfg.Planner != nil {
		return p.cfg.Planner.ActivationDelay
	}
	if p.cfg.Scale != nil {
		return p.cfg.Scale.ActivationDelay
	}
	return 0
}
