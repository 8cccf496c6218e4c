package cluster

import (
	"fmt"
	"math"
	"sort"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/perf"
)

// PlannerConfig configures the predictive SLA planner: every Interval
// seconds it forecasts the next interval's load (request rate, mean input
// and output lengths), converts the forecast into the minimum replica count
// whose interpolated TTFT/TPOT meets the SLA, and scales the fleet straight
// to that target — the Dynamo-style alternative to threshold-reactive
// scaling. The planner is role-aware, and each pool carries its own
// forecasts and correction factors; the package documentation's "SLA
// planner" section has the rules.
type PlannerConfig struct {
	// SLA holds the targets: TTFT bounds the interpolated prefill latency,
	// MTPOT bounds the interpolated decode step time.
	SLA metrics.SLA
	// Min and Max bound the active replica count. Min ≥ 1.
	Min, Max int
	// Interval is the adjustment interval in simulated seconds. 0 selects 10;
	// otherwise it is at least minTickInterval.
	Interval float64
	// Predictor selects the load-forecast model: HoltPredictor, the zero
	// value, is the only one.
	Predictor PredictorKind
	// ActivationDelay is the simulated seconds between a scale-out decision
	// and the replica accepting traffic (model load time).
	ActivationDelay float64
	// Headroom is the fraction of a replica's interpolated SLA-feasible
	// throughput the planner is willing to load it to (utilization target).
	// 0 selects 0.8.
	Headroom float64
	// SpeedAware derives a per-flavor utilization target from absolute
	// service time instead of applying Headroom uniformly: the fastest
	// feasible flavor is loaded to exactly Headroom, and every other flavor
	// reserves the same absolute slack time per request — so a slower GPU,
	// whose requests occupy it longer, keeps a larger fractional reserve
	// against the same burst. On a single-flavor pool the derived target is
	// exactly Headroom, so homogeneous fleets size bit-identically.
	SpeedAware bool
	// Spare provisions N extra replicas beyond the forecast-sized fleet
	// (N+1 redundancy against replica crashes): a crash then removes spare
	// capacity instead of tearing a hole in the SLA-sized fleet while the
	// repair and re-activation delay elapse. Filled cheapest-flavor first,
	// capped at Max. 0 (the default) disables it.
	Spare int
}

func (c PlannerConfig) withDefaults() PlannerConfig {
	if c.Interval == 0 {
		c.Interval = 10
	}
	if c.Headroom == 0 {
		c.Headroom = 0.8
	}
	return c
}

// scaleInPatience is the number of consecutive evaluations that must want a
// smaller fleet before the planner scales in (scale-out is always immediate:
// under-provisioning breaks the SLA, a spare replica only costs
// replica-seconds).
const scaleInPatience = 2

// validate writes its range checks as "inside" tests so that NaN, which
// fails every comparison, is rejected with them.
func (c PlannerConfig) validate(replicas int) error {
	if !(c.SLA.TTFT > 0 && c.SLA.MTPOT > 0) {
		return fmt.Errorf("cluster: planner SLA targets must be positive, got %v", c.SLA)
	}
	if c.Min < 1 || c.Max > replicas || c.Min > c.Max {
		return fmt.Errorf("cluster: bad planner bounds [%d, %d] for %d replicas", c.Min, c.Max, replicas)
	}
	if !(c.Interval == 0 || c.Interval >= minTickInterval && c.Interval < math.Inf(1)) {
		return fmt.Errorf("cluster: planner interval %v neither 0 nor in [%v,+Inf)", c.Interval, minTickInterval)
	}
	if !(c.ActivationDelay >= 0 && c.ActivationDelay < math.Inf(1)) {
		return fmt.Errorf("cluster: planner activation delay %v outside [0,+Inf)", c.ActivationDelay)
	}
	if !(c.Headroom >= 0 && c.Headroom <= 1) {
		return fmt.Errorf("cluster: planner headroom %v outside (0,1]", c.Headroom)
	}
	if c.Spare < 0 {
		return fmt.Errorf("cluster: negative planner spare count %d", c.Spare)
	}
	if c.Predictor != HoltPredictor {
		return fmt.Errorf("cluster: unknown planner predictor %v", c.Predictor)
	}
	return nil
}

// PlanSample records one planner evaluation, for reports and tests.
type PlanSample struct {
	At       float64 // simulated time of the evaluation
	Rate     float64 // observed arrivals/s over the closed interval
	ISL, OSL float64 // observed mean input / output lengths
	PredRate float64 // forecast arrival rate for the next interval
	Target   int     // total replica target the planner chose
	Active   int     // active replicas after applying the decision
	CorrTTFT float64 // correction factor at decision time
	CorrTPOT float64
	// Shed counts admission-control refusals charged to this pool during
	// the closed interval — demand the pool could not serve in time. A
	// shedding interval suppresses scale-in (the fleet is refusing work;
	// shrinking it would be self-fulfilling).
	Shed int
	// Crashes counts replica crashes in this pool during the closed
	// interval. A crashing interval suppresses scale-in like a shedding one:
	// the observed rate dipped because capacity died mid-interval, not
	// because demand did, and the repaired replica is about to need its
	// slot back.
	Crashes int
	// HitRate is the smoothed prefix-cache hit rate the sizing used this
	// tick (0 with caching off): the fraction of arriving prompt tokens the
	// caches served, which the TTFT interpolation deducts from the prefill
	// the fleet must actually compute.
	HitRate float64
	// Targets breaks Target down per flavor (flavor order; length 1 for a
	// homogeneous pool) — the cost-aware placement decision itself.
	Targets []int
}

// planner is the per-pool planner state. The pool owns the scaling
// mechanics (activation events, draining); the planner owns forecasting and
// target sizing — per flavor: each flavor's TTFT/TPOT is interpolated from
// its own perf curves, and demand is filled cheapest-feasible-flavor first.
type planner struct {
	cfg     PlannerConfig
	flavors []*flavor   // the pool's flavor groups (sizing inputs)
	role    engine.Role // selects the sizing rule

	predRate, predISL, predOSL holt

	// Interval accumulators, reset every tick.
	arrivals int
	sumISL   float64
	finished int
	sumOSL   float64
	sumTTFT  float64
	sumTPOT  float64
	sheds    int
	crashes  int
	// Prefix-cache interval accumulators (cached/restored prompt tokens vs
	// total prompt tokens over first-pass admissions; fed by the admit hooks
	// of caching-enabled replicas, so both stay 0 with caching off).
	sumHit   float64
	sumHitIn float64

	// Correction factors (package documentation), and the latencies last
	// predicted for the workhorse flavor that the next tick compares with
	// what it observed.
	corrTTFT, corrTPOT         float64
	lastPredTTFT, lastPredTPOT float64

	// hitRate is the smoothed prefix-cache hit rate (0 with caching off).
	hitRate float64

	// Fallbacks when an interval observes no arrivals/finishes.
	lastISL, lastOSL float64

	// belowFor counts consecutive ticks whose raw target was below the
	// active count (scale-in patience).
	belowFor int

	// Tick scratch (per-flavor throughputs, ranking order, targets).
	thrs    []flavorThr
	order   []int
	targets []int

	History []PlanSample
}

// flavorThr is one flavor's interpolated operating point at the forecast
// shape: its SLA-feasible request rate per replica and the predicted
// latencies the correction factors compare against.
type flavorThr struct {
	thr      float64 // requests/s one replica sustains inside the SLA; 0 = infeasible
	predTTFT float64
	predTPOT float64
}

func newPlanner(cfg PlannerConfig, flavors []*flavor, role engine.Role) *planner {
	return &planner{
		cfg: cfg, flavors: flavors, role: role,
		corrTTFT: 1, corrTPOT: 1,
		thrs:    make([]flavorThr, len(flavors)),
		order:   make([]int, len(flavors)),
		targets: make([]int, len(flavors)),
	}
}

// observeArrival accounts one routed arrival (ISL is known on arrival).
func (p *planner) observeArrival(inputLen int) {
	p.arrivals++
	p.sumISL += float64(inputLen)
}

// observeFinish accounts one completed request (OSL and the latency
// metrics are known on finish). A decode pool feeds MTPOT — the inter-token
// metric its SLA actually bounds — where a mixed pool feeds mean TPOT.
func (p *planner) observeFinish(generated int, ttft, tpot float64) {
	p.finished++
	p.sumOSL += float64(generated)
	if ttft >= 0 {
		p.sumTTFT += ttft
	}
	p.sumTPOT += tpot
}

// observeCacheHit accounts one first-pass admission's prefix-cache
// coverage: hit is the prompt tokens served by resident or restored cache
// blocks, input the full prompt. Only caching-enabled replicas feed this.
func (p *planner) observeCacheHit(hit, input int) {
	if input <= 0 {
		return
	}
	if hit > input {
		hit = input
	}
	p.sumHit += float64(hit)
	p.sumHitIn += float64(input)
}

// observeShed accounts one admission-control refusal charged to this pool —
// the shed-rate signal: demand arrived that the pool's capacity could not
// serve inside the SLA.
func (p *planner) observeShed() { p.sheds++ }

// observeCrash accounts one replica crash in this pool — the
// failure-awareness signal: the interval's observed throughput understates
// demand, and scale-in decisions based on it would be wrong twice over.
func (p *planner) observeCrash() { p.crashes++ }

// correctionSmoothing blends the latest observed/predicted ratio into the
// running correction factor; corrections are clamped to [0.25, 4] so one
// anomalous interval cannot swing the fleet to a bound.
const (
	correctionSmoothing = 0.5
	correctionFloor     = 0.25
	correctionCeil      = 4.0
)

func updateCorrection(corr, observed, predicted float64) float64 {
	if observed <= 0 || predicted <= 0 {
		return corr
	}
	ratio := observed / predicted
	corr = correctionSmoothing*ratio + (1-correctionSmoothing)*corr
	return math.Min(math.Max(corr, correctionFloor), correctionCeil)
}

// tick closes the current observation interval at time now and returns the
// per-flavor replica targets for the next interval (flavor order; the
// returned slice is planner-owned scratch, valid until the next tick). The
// sample it appends to History leaves Active to the caller, which knows it
// once the targets are applied.
func (p *planner) tick(now float64, activeByFlavor []int) []int {
	rate := float64(p.arrivals) / p.cfg.Interval
	isl, osl := p.lastISL, p.lastOSL
	if p.arrivals > 0 {
		isl = p.sumISL / float64(p.arrivals)
		p.lastISL = isl
	}
	if p.finished > 0 {
		osl = p.sumOSL / float64(p.finished)
		p.lastOSL = osl
		p.corrTTFT = updateCorrection(p.corrTTFT, p.sumTTFT/float64(p.finished), p.lastPredTTFT)
		p.corrTPOT = updateCorrection(p.corrTPOT, p.sumTPOT/float64(p.finished), p.lastPredTPOT)
	}
	p.predRate.Observe(rate)
	p.predISL.Observe(isl)
	p.predOSL.Observe(osl)
	if p.sumHitIn > 0 {
		p.hitRate = correctionSmoothing*(p.sumHit/p.sumHitIn) + (1-correctionSmoothing)*p.hitRate
	}
	p.arrivals, p.sumISL = 0, 0
	p.finished, p.sumOSL, p.sumTTFT, p.sumTPOT = 0, 0, 0, 0
	p.sumHit, p.sumHitIn = 0, 0

	predRate := math.Max(p.predRate.Predict(), 0)
	predISL := math.Max(p.predISL.Predict(), 1)
	predOSL := math.Max(p.predOSL.Predict(), 1)

	// Size against the forecast, floored by the rate just observed (doc.go).
	targets, total := p.targetVec(math.Max(predRate, rate), predISL, predOSL)
	total = p.fill(targets, total, min(p.cfg.Spare, p.cfg.Max-total))
	// Scale-in patience guards every per-flavor reduction, not just the
	// total: holding floors each shrinking flavor at its active count while
	// increases elsewhere still go out at once (doc.go).
	sheds, crashes := p.sheds, p.crashes
	p.sheds, p.crashes = 0, 0
	shrinking := false
	for i, t := range targets {
		if t < activeByFlavor[i] {
			shrinking = true
			break
		}
	}
	if shrinking {
		hold := false
		if sheds > 0 || crashes > 0 {
			p.belowFor = 0
			hold = true
		} else {
			p.belowFor++
			if p.belowFor < scaleInPatience {
				hold = true
			}
		}
		if hold {
			total = 0
			for i := range targets {
				if targets[i] < activeByFlavor[i] {
					targets[i] = activeByFlavor[i]
				}
				total += targets[i]
			}
			// Flooring the shrinking flavors while other flavors grew can
			// push the total past Max; trim the increases — most expensive
			// capacity first (reverse cost order) — so a hold never
			// provisions beyond the configured bound. Floors are never cut:
			// active counts are themselves bounded by Max, so trimming the
			// increases alone always suffices.
			for i := len(p.order) - 1; i >= 0 && total > p.cfg.Max; i-- {
				fi := p.order[i]
				if cut := targets[fi] - activeByFlavor[fi]; cut > 0 {
					if over := total - p.cfg.Max; cut > over {
						cut = over
					}
					targets[fi] -= cut
					total -= cut
				}
			}
		}
	} else {
		p.belowFor = 0
	}
	p.History = append(p.History, PlanSample{
		At: now, Rate: rate, ISL: isl, OSL: osl, PredRate: predRate,
		Target: total, CorrTTFT: p.corrTTFT, CorrTPOT: p.corrTPOT,
		Shed:    sheds,
		Crashes: crashes,
		HitRate: p.hitRate,
		Targets: append([]int(nil), targets...),
	})
	return targets
}

// targetVec is the cost-aware sizing rule (doc.go): it prices every flavor
// at the forecast shape, ranks the flavors feasible first and then by cost
// per unit of throughput, and fills the demand cheapest first. It returns
// the per-flavor targets (planner scratch) and their total.
func (p *planner) targetVec(rate, isl, osl float64) ([]int, int) {
	for i, f := range p.flavors {
		p.thrs[i] = p.flavorThroughput(f, isl, osl)
		p.targets[i] = 0
		p.order[i] = i
	}
	// Speed-aware headroom anchors on the fastest feasible flavor's
	// absolute service time; headroomFor derives each flavor's target from
	// it. 0 when speed-aware is off or nothing is feasible.
	fastest := 0.0
	if p.cfg.SpeedAware {
		for i := range p.thrs {
			if p.thrs[i].thr > fastest {
				fastest = p.thrs[i].thr
			}
		}
	}
	sort.Slice(p.order, func(x, y int) bool {
		a, b := p.order[x], p.order[y]
		ta, tb := p.thrs[a].thr, p.thrs[b].thr
		if (ta > 0) != (tb > 0) {
			return ta > 0 // feasible flavors first
		}
		ca, cb := p.flavors[a].cost, p.flavors[b].cost
		if ta > 0 {
			if ra, rb := ca/ta, cb/tb; ra != rb {
				return ra < rb // cheapest cost-per-throughput first
			}
		}
		if ca != cb {
			return ca < cb
		}
		return a < b
	})
	// Correction factors compare the pool's observed latency against the
	// workhorse flavor — the first in cost order, which serves the bulk of
	// the demand (and is the pool's only flavor when homogeneous).
	lead := p.thrs[p.order[0]]
	p.lastPredTTFT, p.lastPredTPOT = lead.predTTFT, lead.predTPOT

	total := 0
	remaining := rate
	met := false
	for _, fi := range p.order {
		op := p.thrs[fi]
		if op.thr <= 0 {
			break // only infeasible flavors remain
		}
		avail := len(p.flavors[fi].reps)
		if room := p.cfg.Max - total; avail > room {
			avail = room
		}
		if avail <= 0 {
			continue
		}
		hr := p.headroomFor(op.thr, fastest)
		need := int(math.Ceil(remaining / (op.thr * hr)))
		if need <= avail {
			if need > 0 {
				p.targets[fi] = need
				total += need
			}
			met = true
			break
		}
		p.targets[fi] = avail
		total += avail
		remaining -= float64(avail) * op.thr * hr
	}
	if !met {
		// Feasible capacity exhausted (or nothing feasible at this shape):
		// throw the rest of the fleet at it, up to Max.
		total = p.fill(p.targets, total, p.cfg.Max-total)
	}
	return p.targets, p.fill(p.targets, total, p.cfg.Min-total)
}

// fill adds up to n replicas to targets, cheapest flavor first (p.order, as
// targetVec last ranked it), each flavor up to its replica count, and
// returns the new total.
func (p *planner) fill(targets []int, total, n int) int {
	for _, fi := range p.order {
		if n <= 0 {
			break
		}
		if add := min(len(p.flavors[fi].reps)-targets[fi], n); add > 0 {
			targets[fi] += add
			total += add
			n -= add
		}
	}
	return total
}

// headroomFor returns the utilization target for a flavor with feasible
// rate thr. Uniform mode returns Headroom as-is. Speed-aware mode converts
// Headroom into the absolute slack time W the fastest flavor reserves per
// unit of service (W = t_fast·H/(1−H)) and grants every flavor the same W
// against its own service time t = 1/thr, so h = W/(W + t). The fastest
// flavor (and therefore any single-flavor pool) short-circuits to exactly
// Headroom, keeping homogeneous sizing bit-identical.
func (p *planner) headroomFor(thr, fastest float64) float64 {
	h := p.cfg.Headroom
	if !p.cfg.SpeedAware || fastest <= 0 || thr <= 0 || h >= 1 || thr >= fastest {
		return h
	}
	tFast := 1 / fastest
	w := tFast * h / (1 - h)
	return w / (w + 1/thr)
}

// flavorThroughput prices one replica of flavor f at shape (isl, osl) under
// the pool's role, by the closed forms of the package documentation: the
// request rate it sustains inside the corrected SLA (0 when infeasible) and
// the latencies the correction factors compare against.
func (p *planner) flavorThroughput(f *flavor, isl, osl float64) flavorThr {
	effTTFT := p.cfg.SLA.TTFT / p.corrTTFT
	effTPOT := p.cfg.SLA.MTPOT / p.corrTPOT
	in := int(isl*(1-p.hitRate) + 0.5)
	if in < 1 {
		in = 1
	}
	prefill := f.pm.PrefillTime(in)
	if f.chunkOver != nil {
		prefill += f.chunkOver(float64(in))
	}
	out := math.Max(osl, 1)
	switch p.role {
	case engine.RolePrefillOnly:
		ttft := prefill
		if f.xfer != nil {
			ttft += f.xfer(isl)
		}
		if ttft > effTTFT {
			return flavorThr{predTTFT: ttft}
		}
		return flavorThr{thr: 1 / prefill, predTTFT: ttft}
	case engine.RoleDecodeOnly:
		b, td := maxDecodeBatch(f.pm, f.capacity, math.Max(isl+osl, 1), effTPOT)
		if td > effTPOT {
			return flavorThr{predTPOT: td}
		}
		return flavorThr{thr: float64(b) / (out * td), predTPOT: td}
	default:
		if prefill > effTTFT {
			return flavorThr{predTTFT: prefill}
		}
		b, td := maxDecodeBatch(f.pm, f.capacity, math.Max(isl+osl/2, 1), effTPOT)
		if td > effTPOT {
			return flavorThr{predTTFT: prefill, predTPOT: td}
		}
		return flavorThr{thr: float64(b) / (out*td + float64(b)*prefill), predTTFT: prefill, predTPOT: td}
	}
}

// maxDecodeBatch binary-searches the largest decode batch whose step time
// stays under the TPOT target at the given mean per-request KV footprint,
// capped by the pool capacity. DecodeTime grows monotonically in batch
// size and KV tokens. Returns the batch and its step time (which exceeds
// the target only when even B=1 misses it).
func maxDecodeBatch(pm *perf.Model, capacityTokens int, meanFootprint, tpot float64) (b int, td float64) {
	maxB := int(float64(capacityTokens) / meanFootprint)
	if maxB < 1 {
		maxB = 1
	}
	lo, hi := 1, maxB
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if pm.DecodeTime(mid, int(float64(mid)*meanFootprint)) <= tpot {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, pm.DecodeTime(lo, int(float64(lo)*meanFootprint))
}
