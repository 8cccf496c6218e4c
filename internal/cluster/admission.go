package cluster

import (
	"fmt"
	"math"

	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
)

// AdmissionConfig enables cluster-front admission control: instead of
// routing every arrival to a replica immediately (and letting per-engine
// queues absorb overload), the cluster holds requests that no replica can
// take right now in a deadline-indexed global queue, releases them in EDF
// order when capacity frees, and — with Shed — refuses requests whose
// remaining TTFT budget can no longer cover their predicted service floor,
// before any KV-link bandwidth or decode capacity is spent on them.
type AdmissionConfig struct {
	// TTFTBudget stamps every arrival's absolute TTFT deadline
	// (ArrivalTime + TTFTBudget) unless the request already carries one.
	// Required (> 0) when Shed is set; with 0, the queue degrades to FIFO
	// order and never sheds.
	TTFTBudget float64
	// MaxProbe is the entry-pool admission gate: an arrival is placed
	// immediately only if some accepting replica's FutureHeadroom probe
	// (predicted future peak as a fraction of capacity, candidate included)
	// stays at or below this; otherwise it is held at the cluster front.
	// 0 selects 1.0 — hold only when every replica predicts an overflow.
	MaxProbe float64
	// DecodeMaxProbe additionally gates arrivals on the decode pool of a
	// disaggregated cluster (pool-aware admission: a saturated decode pool
	// holds arrivals at the front instead of drowning in handoffs it pays
	// for in MTPOT). 0 selects MaxProbe.
	DecodeMaxProbe float64
	// Shed enables deadline shedding: a held request whose remaining budget
	// cannot cover predicted prefill + transfer is refused with
	// request.OutcomeShed, and a handoff whose expected delivery would land
	// past the deadline is dropped at the prefill→transfer boundary before
	// the transfer is booked.
	Shed bool
	// Slack tightens every feasibility check by this many seconds — a
	// reserve for the admission wait the floor cannot see (the engine-side
	// queueing between placement and the prefill iteration). 0 = none.
	Slack float64
	// DynamicSlack replaces the static Slack reserve with an observed one:
	// the pipeline tracks the actual placement→prefill-admission wait of
	// first-pass arrivals on the entry pool (a smoothed estimate, clamped to
	// [Slack/4, 4·Slack] so one outlier cannot open or close the gate), and
	// the feasibility check uses that estimate instead of the static
	// reserve. Requires Slack > 0 — the static value seeds the estimate and
	// anchors the clamp. Deliberately independent of any attached Recorder:
	// the observation rides the engine's admission hook, so dynamic-slack
	// runs make identical decisions with and without tracing.
	DynamicSlack bool
	// ClassRank orders held requests *within one deadline bucket* by
	// service class: lower ranks release first when capacity frees, so at
	// equal slack the higher-ranked (less critical) class is the one left
	// behind to expire — best-effort sheds before interactive, the
	// policy-controllable half of overload degradation. nil ranks every
	// class 0, preserving pure EDF + FIFO.
	ClassRank func(class string) int
	// ClassBucket widens the deadline tie the class rank breaks: deadlines
	// are quantized into *fixed* absolute windows of this many seconds
	// ([k·bucket, (k+1)·bucket)), and within one window class rank
	// dominates (EDF still orders inside one rank). Real arrival streams
	// never produce bit-identical deadlines, so without a bucket the class
	// policy only fires on hand-crafted ties. The windows are fixed, not
	// sliding: two deadlines 20 ms apart straddling a boundary do not tie,
	// while two at opposite ends of one window do — the quantization is
	// what keeps the heap a single-key order. 0 = exact ties only (pure
	// EDF across classes).
	ClassBucket float64
	// OnShed, when non-nil, observes every shed decision.
	OnShed func(now float64, r *request.Request)
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxProbe == 0 {
		c.MaxProbe = 1.0
	}
	if c.DecodeMaxProbe == 0 {
		c.DecodeMaxProbe = c.MaxProbe
	}
	return c
}

func (c AdmissionConfig) validate() error {
	if c.TTFTBudget < 0 {
		return fmt.Errorf("cluster: negative admission TTFT budget %v", c.TTFTBudget)
	}
	if c.MaxProbe < 0 || c.DecodeMaxProbe < 0 {
		return fmt.Errorf("cluster: negative admission probe gate (%v, %v)", c.MaxProbe, c.DecodeMaxProbe)
	}
	if c.Slack < 0 {
		return fmt.Errorf("cluster: negative admission slack %v", c.Slack)
	}
	if c.ClassBucket < 0 {
		return fmt.Errorf("cluster: negative admission class bucket %v", c.ClassBucket)
	}
	if c.Shed && c.TTFTBudget == 0 {
		return fmt.Errorf("cluster: shedding requires a TTFT budget")
	}
	if c.DynamicSlack && c.Slack <= 0 {
		return fmt.Errorf("cluster: dynamic slack requires a positive static slack seed")
	}
	return nil
}

// admitItem is one held request keyed by its TTFT deadline (+Inf when the
// request carries none, so deadline-less traffic degrades to FIFO), the
// deadline's class bucket (the deadline itself when ClassBucket is 0), and
// its service-class rank (0 without a ClassRank policy).
type admitItem struct {
	r        *request.Request
	deadline float64
	bucket   float64
	rank     int
	seq      int64
}

// admitHeap is the deadline-indexed global queue: a typed EDF min-heap —
// earliest deadline bucket first, class rank inside one bucket, exact
// deadline inside one rank, FIFO last — so at (bucket-)equal slack an
// interactive request is released ahead of a best-effort one, and the
// best-effort one is what expires. With ClassBucket 0 the bucket is the
// deadline itself and the order is pure EDF (rank, FIFO on exact ties).
// Typed rather than container/heap for the same reason as the engine's
// arrival heap — the push/retry cycle runs on every capacity event and
// must not allocate in steady state (storage is retained across pops).
type admitHeap []admitItem

func (h admitHeap) Len() int { return len(h) }

func (h admitHeap) less(i, j int) bool {
	if h[i].bucket != h[j].bucket {
		return h[i].bucket < h[j].bucket
	}
	if h[i].rank != h[j].rank {
		return h[i].rank < h[j].rank
	}
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}

func (h admitHeap) top() admitItem { return h[0] }

func (h *admitHeap) push(it admitItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *admitHeap) pop() admitItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = admitItem{} // release the request pointer
	*h = s[:n]
	s = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// where a shed decision was taken.
const (
	shedFront    = iota // at the cluster front, before any engine saw it
	shedBoundary        // at the prefill→transfer boundary, before booking
	shedFlush           // at end of run: still held when the stream closed
)

// admission is the cluster-front pipeline state. The cluster owns the event
// clock and calls retry on capacity events (a replica step that released a
// request, an activation, a KV delivery, an autoscaler move); the pipeline
// owns the EDF queue and the shed ledger.
type admission struct {
	cfg AdmissionConfig
	clu *Cluster

	heap admitHeap
	seq  int64

	// A pending evRetry event and its timestamp (coalescing: see
	// Cluster.scheduleRetry).
	retryPending bool
	retryAt      float64

	shedList      []*request.Request
	frontSheds    int
	boundarySheds int

	// Observed placement→admission wait (DynamicSlack): a smoothed estimate
	// seeded by the static Slack, fed by the entry engines' admission hooks.
	obsWait    float64
	obsWaitSet bool
}

func newAdmission(c *Cluster, cfg AdmissionConfig) (*admission, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	a := &admission{
		cfg: cfg.withDefaults(),
		clu: c,
	}
	if a.cfg.DynamicSlack {
		for _, rep := range c.pools[c.entry].reps {
			rep.eng.AddAdmitHook(func(now float64, admitted []*request.Request) {
				for _, r := range admitted {
					// First-pass arrivals only: migrations and fault retries
					// measure recovery waits, not the admission gap the slack
					// reserves for.
					if r.Admissions == 1 && !r.Migrated && r.Retries == 0 {
						a.observeWait(now - r.ArrivalTime)
					}
				}
			})
		}
	}
	return a, nil
}

// observeWait folds one observed arrival→prefill-admission wait into the
// dynamic-slack estimate (same 0.5 smoothing as the planner's correction
// factors). The observed wait includes any cluster-front hold, which the
// floor also cannot see, so charging it against the slack reserve is
// conservative in the right direction.
func (a *admission) observeWait(w float64) {
	if w < 0 {
		w = 0
	}
	if !a.obsWaitSet {
		a.obsWait = w
		a.obsWaitSet = true
		return
	}
	a.obsWait = 0.5*a.obsWait + 0.5*w
}

// effSlack returns the slack reserve the feasibility check uses: the static
// configured value, or — under DynamicSlack, once an observation exists —
// the smoothed observed wait clamped to [Slack/4, 4·Slack].
func (a *admission) effSlack() float64 {
	if !a.cfg.DynamicSlack || !a.obsWaitSet {
		return a.cfg.Slack
	}
	s := a.obsWait
	if min := a.cfg.Slack * 0.25; s < min {
		s = min
	}
	if max := a.cfg.Slack * 4; s > max {
		s = max
	}
	return s
}

// rank maps one request to its service-class rank (0 without a policy).
func (a *admission) rank(r *request.Request) int {
	if a.cfg.ClassRank == nil {
		return 0
	}
	return a.cfg.ClassRank(r.Class)
}

// bucketKey quantizes a deadline into its class-tie bucket (the deadline
// itself without a ClassBucket, so only exact ties break by class).
func (a *admission) bucketKey(deadline float64) float64 {
	if a.cfg.ClassBucket <= 0 {
		return deadline
	}
	return math.Floor(deadline / a.cfg.ClassBucket)
}

// Held returns the number of requests currently held at the cluster front.
func (a *admission) Held() int { return a.heap.Len() }

// arrive runs one arrival through the pipeline: place it now if the gates
// pass, shed it if its budget is already infeasible, hold it otherwise.
func (a *admission) arrive(now float64, r *request.Request) {
	if a.cfg.TTFTBudget > 0 && r.TTFTDeadline == 0 {
		r.TTFTDeadline = r.ArrivalTime + a.cfg.TTFTBudget
	}
	a.shedExpired(now) // keep the head honest between capacity events
	if a.tryPlace(now, r) {
		return
	}
	if a.cfg.Shed && a.infeasible(now, r) {
		a.shed(now, r, shedFront)
		return
	}
	if !a.clu.anyBusy() {
		// Nothing is running, so no capacity will ever free: holding would
		// deadlock. Force the placement and let the engine's own admission
		// (and unservable-request handling) judge it.
		a.place(now, r)
		return
	}
	a.seq++
	dl := deadlineKey(r)
	a.heap.push(admitItem{r: r, deadline: dl, bucket: a.bucketKey(dl), rank: a.rank(r), seq: a.seq})
	if a.clu.rec != nil {
		a.clu.rec.Hold(now, r, a.heap.Len())
	}
}

// retry releases held requests in EDF order while the earliest-deadline
// head passes the gates, shedding expired heads as it goes. Called on
// every capacity event; stops at the first head that still cannot place
// (EDF: the head owns the scarcest budget, so no later request may jump it).
func (a *admission) retry(now float64) {
	a.shedExpired(now)
	for a.heap.Len() > 0 {
		head := a.heap.top().r
		if a.tryPlace(now, head) {
			a.heap.pop()
			if a.clu.rec != nil {
				a.clu.rec.Release(now, head, a.heap.Len())
			}
			a.shedExpired(now)
			continue
		}
		if !a.clu.anyBusy() {
			a.heap.pop()
			if a.clu.rec != nil {
				a.clu.rec.Release(now, head, a.heap.Len())
			}
			a.place(now, head) // liveness: idle cluster, force the engine to judge
			continue
		}
		return
	}
}

// shedExpired sheds queue heads whose remaining budget can no longer cover
// their service floor. Lazy (heads only): under pure EDF the head owns the
// earliest deadline, so expiry almost always surfaces there first; a
// later-deadline request with a larger floor is caught when it reaches the
// head. With ClassRank + ClassBucket the head can instead be a
// higher-priority request whose deadline is up to one bucket later, so a
// buried lower-rank request may expire before surfacing — its shed is then
// recorded late (bounded by the bucket width, or by the end-of-run flush),
// the deliberate price of letting class order trump strict EDF inside one
// window.
func (a *admission) shedExpired(now float64) {
	if !a.cfg.Shed {
		return
	}
	for a.heap.Len() > 0 && a.infeasible(now, a.heap.top().r) {
		a.shed(now, a.heap.pop().r, shedFront)
	}
}

// infeasible reports whether the request's remaining TTFT budget cannot
// cover its predicted service floor from now.
func (a *admission) infeasible(now float64, r *request.Request) bool {
	if r.TTFTDeadline <= 0 {
		return false
	}
	return now+a.floor(r)+a.effSlack() > r.TTFTDeadline
}

// floor is the best-case remaining service time before the request's first
// token becomes visible: the *fastest flavor's* prefill across the entry
// pool (a request is refused only when no flavor can make its deadline),
// plus — in a disaggregated cluster — the unqueued KV transfer of prompt +
// prefill token at the smallest per-token footprint. Engine-side admission
// waits are not modeled here (Slack reserves for them); wire queueing enters
// separately at the transfer boundary, where the actual expected delivery
// is known.
func (a *admission) floor(r *request.Request) float64 {
	c := a.clu
	// With prefix caching, the best case skips the largest cache coverage
	// any accepting entry replica holds: only the uncached suffix must
	// prefill before the first token. Restorable offloaded blocks count
	// toward the discount with their wire time omitted — the floor is a
	// lower bound, and pricing restores would overshoot it whenever the
	// engine restores for less than the prefill it replaces (the only case
	// it does). Zero discount when caching is off.
	in := r.InputLen - c.pools[c.entry].bestCachedTokens(r)
	f := math.Inf(1)
	for _, fl := range c.pools[c.entry].flavors {
		t := fl.pm.PrefillTime(in)
		// Chunked prefill lands the prompt over several iterations; the
		// per-chunk overhead is part of the best case.
		if fl.chunkOver != nil {
			t += fl.chunkOver(float64(in))
		}
		if t < f {
			f = t
		}
	}
	if c.Disaggregated() && c.link != nil {
		f += c.link.TransferTime((int64(r.InputLen) + 1) * c.minKVBytesPerToken)
	}
	return f
}

// tryPlace gates and places in one probe sweep: some accepting entry
// replica must probe at or under the gate (raw memory fraction — speed
// does not gate feasibility) and — pool-aware — the decode pool of a
// disaggregated cluster must absorb the eventual migration without
// predicted overflow. Under the FutureHeadroom policy the gate's
// speed-normalized argmin replica *is* the routing decision, so the
// placement reuses it instead of probing the pool a second time.
func (a *admission) tryPlace(now float64, r *request.Request) bool {
	c := a.clu
	entry := c.pools[c.entry]
	rep, frac := entry.bestProbe(r, a.cfg.MaxProbe)
	if frac > a.cfg.MaxProbe {
		return false
	}
	if c.Disaggregated() {
		if _, df := c.pools[c.decode].bestProbe(r, a.cfg.DecodeMaxProbe); df > a.cfg.DecodeMaxProbe {
			return false
		}
	}
	if entry.cfg.Policy == FutureHeadroom && rep != nil {
		entry.routeTo(r, rep)
		a.submit(now, r, rep)
	} else {
		a.place(now, r) // other policies route their own way
	}
	return true
}

// place routes the request into the entry pool under the configured policy,
// preserving its ArrivalTime (the cluster-front hold is charged to TTFT).
func (a *admission) place(now float64, r *request.Request) {
	entry := a.clu.pools[a.clu.entry]
	a.submit(now, r, entry.route(r))
}

func (a *admission) submit(now float64, r *request.Request, rep *replica) {
	c := a.clu
	entry := c.pools[c.entry]
	if c.rec != nil {
		c.rec.Place(now, r, c.entry, rep.idx, rep.flv.name)
	}
	rep.eng.SubmitAt(r, now)
	entry.placed(rep, r)
	c.ensureStepEvent(entry, rep)
}

// shed refuses a request terminally and feeds the planners' shed-rate
// signal (demand existed; capacity did not).
func (a *admission) shed(now float64, r *request.Request, where int) {
	r.Shed(now)
	a.shedList = append(a.shedList, r)
	c := a.clu
	switch where {
	case shedBoundary:
		a.boundarySheds++
		if p := c.pools[c.decode]; p.plan != nil {
			p.plan.observeShed()
		}
	default:
		a.frontSheds++
		if p := c.pools[c.entry]; p.plan != nil {
			p.plan.observeShed()
		}
	}
	if a.cfg.OnShed != nil {
		a.cfg.OnShed(now, r)
	}
	if c.rec != nil {
		site := obs.ShedFront
		switch where {
		case shedBoundary:
			site = obs.ShedBoundary
		case shedFlush:
			site = obs.ShedFlush
		}
		c.rec.Shed(now, r, site)
	}
}

// flush terminates every request still held when the run ends: the stream
// is over, nothing more will free, and an unserved hold is a refusal.
func (a *admission) flush(now float64) {
	for a.heap.Len() > 0 {
		a.shed(now, a.heap.pop().r, shedFlush)
	}
}

// deadlineKey maps a missing deadline to +Inf so deadline-less requests
// sort behind every deadline-carrying one (FIFO among themselves).
func deadlineKey(r *request.Request) float64 {
	if r.TTFTDeadline <= 0 {
		return math.Inf(1)
	}
	return r.TTFTDeadline
}
