package cluster

import (
	"fmt"
	"math"

	"github.com/lightllm-go/lightllm/internal/minheap"
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
	// DecodeMaxProbe additionally gates arrivals on the decode pool of a
	// disaggregated cluster (pool-aware admission: a saturated decode pool
	// holds arrivals at the front instead of drowning in handoffs it pays
	// for in MTPOT). 0 selects 1.0, the entry pool's gate.
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
}

// entryMaxProbe is the entry-pool admission gate: an arrival is placed
// immediately only if some accepting replica's FutureHeadroom probe
// (predicted future peak as a fraction of capacity, candidate included)
// stays at or below it; otherwise it is held at the cluster front. At 1.0 an
// arrival is held only when every replica predicts an overflow.
const entryMaxProbe = 1.0

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.DecodeMaxProbe == 0 {
		c.DecodeMaxProbe = entryMaxProbe
	}
	return c
}

func (c AdmissionConfig) validate() error {
	for _, v := range []float64{c.TTFTBudget, c.DecodeMaxProbe, c.Slack} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: non-finite admission parameter %v", v)
		}
	}
	if c.TTFTBudget < 0 {
		return fmt.Errorf("cluster: negative admission TTFT budget %v", c.TTFTBudget)
	}
	if c.DecodeMaxProbe < 0 {
		return fmt.Errorf("cluster: negative decode admission probe gate %v", c.DecodeMaxProbe)
	}
	if c.Slack < 0 {
		return fmt.Errorf("cluster: negative admission slack %v", c.Slack)
	}
	if c.Shed && c.TTFTBudget == 0 {
		return fmt.Errorf("cluster: shedding requires a TTFT budget")
	}
	return nil
}

// admitItem is one held request keyed by its TTFT deadline (+Inf when the
// request carries none, so deadline-less traffic degrades to FIFO) and its
// arrival sequence number, with the instant it was held.
type admitItem struct {
	r        *request.Request
	deadline float64
	seq      int64
	at       float64
}

// admitBefore orders the deadline-indexed global queue: earliest deadline
// first, FIFO on ties.
func admitBefore(a, b *admitItem) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
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

	heap minheap.Heap[admitItem] // the EDF queue
	seq  int64

	// A pending evRetry event and its timestamp (coalescing: see
	// Cluster.scheduleRetry).
	retryPending bool
	retryAt      float64

	shedList      []*request.Request
	frontSheds    int
	boundarySheds int
}

func newAdmission(c *Cluster, cfg AdmissionConfig) (*admission, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &admission{cfg: cfg.withDefaults(), clu: c, heap: minheap.New(admitBefore)}, nil
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
		a.clu.place(now, r)
		return
	}
	a.seq++
	a.heap.Push(admitItem{r: r, deadline: deadlineKey(r), seq: a.seq, at: now})
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
		head := a.heap.Top().r
		if a.tryPlace(now, head) {
			a.heap.Pop()
			if a.clu.rec != nil {
				a.clu.rec.Release(now, head, a.heap.Len())
			}
			a.shedExpired(now)
			continue
		}
		if !a.clu.anyBusy() {
			a.heap.Pop()
			if a.clu.rec != nil {
				a.clu.rec.Release(now, head, a.heap.Len())
			}
			a.clu.place(now, head) // liveness: idle cluster, force the engine to judge
			continue
		}
		return
	}
}

// shedExpired sheds queue heads whose remaining budget can no longer cover
// their service floor. Lazy (heads only): under EDF the head owns the
// earliest deadline, so expiry almost always surfaces there first; a
// later-deadline request with a larger floor is caught when it reaches the
// head.
func (a *admission) shedExpired(now float64) {
	if !a.cfg.Shed {
		return
	}
	for a.heap.Len() > 0 && a.infeasible(now, a.heap.Top().r) {
		a.shed(now, a.heap.Pop().r, shedFront)
	}
}

// infeasible reports whether the request's remaining TTFT budget cannot
// cover its predicted service floor from now.
func (a *admission) infeasible(now float64, r *request.Request) bool {
	if r.TTFTDeadline <= 0 {
		return false
	}
	return now+a.floor(r)+a.cfg.Slack > r.TTFTDeadline
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
	rep, frac := entry.bestProbe(r, entryMaxProbe)
	if frac > entryMaxProbe {
		return false
	}
	if c.Disaggregated() {
		if _, df := c.pools[c.decode].bestProbe(r, a.cfg.DecodeMaxProbe); df > a.cfg.DecodeMaxProbe {
			return false
		}
	}
	if entry.cfg.Policy == FutureHeadroom && rep != nil {
		entry.routeTo(r, rep)
		c.submit(now, r, rep)
	} else {
		c.place(now, r) // other policies route their own way
	}
	return true
}

// place routes the request into the entry pool under the configured policy,
// preserving its ArrivalTime (a cluster-front hold or a fault outage is
// charged to TTFT). A pick that is down for good loses the request.
func (c *Cluster) place(now float64, r *request.Request) {
	entry := c.pools[c.entry]
	rep := entry.pick(r)
	if rep.downForGood() {
		c.lose(now, r, c.entry, rep.idx)
		return
	}
	entry.routeTo(r, rep)
	c.submit(now, r, rep)
}

// submit places the request on an entry replica the caller routed it to.
func (c *Cluster) submit(now float64, r *request.Request, rep *replica) {
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
// is over, nothing more will free, and an unserved hold is a refusal. The
// run's end is read off the engine clocks, which trail a hold that no step
// followed (every replica down, say); such a request is shed at the instant
// it was held.
func (a *admission) flush(now float64) {
	for a.heap.Len() > 0 {
		it := a.heap.Pop()
		a.shed(max(now, it.at), it.r, shedFlush)
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
