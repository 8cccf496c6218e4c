package cluster

import (
	"fmt"
	"math"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// FaultConfig enables deterministic fault injection: a seeded schedule of
// replica crashes, KV-link delivery failures, and slow-replica degradations
// (internal/faults), replayed through the cluster's event heap, plus the
// recovery policy for the work those faults destroy.
//
// The configuration is a zero-cost abstraction: with a nil FaultConfig — or
// an empty schedule and zero LinkFailRate — the cluster's decisions, event
// sequence numbers, and reports are bit-identical to a build without the
// fault subsystem (TestFeatureMatrix pins this on every fault-free cell).
type FaultConfig struct {
	// Schedule is the fault injection plan (scripted, or faults.Generate for
	// MTBF/MTTR stochastic storms). Crash and Slowdown faults become heap
	// events at construction; LinkFailure faults arm as deliveries reach
	// their timestamps.
	Schedule faults.Script
	// Recover routes fault-orphaned requests back through the admission
	// pipeline: a crash's evacuated requests ResetForRetry and re-enter the
	// EDF queue with their original ArrivalTime (the outage charges TTFT),
	// and failed KV deliveries retry with capped exponential backoff before
	// falling back to re-prefill. false models a cluster with no recovery
	// story: orphaned requests and failed transfers are terminally lost
	// (request.OutcomeFailed), the baseline the recovery comparison beats.
	Recover bool
	// MaxTransferRetries bounds per-handoff delivery retries before the
	// request falls back to re-prefill. 0 selects 3.
	MaxTransferRetries int
	// RetryBackoff is the base delay of the capped exponential transfer
	// backoff, seconds (kv.Backoff). 0 selects 0.05.
	RetryBackoff float64
	// RetryBackoffCap caps the backoff delay. 0 selects 8× RetryBackoff.
	RetryBackoffCap float64
	// LinkFailRate additionally fails each KV delivery independently with
	// this probability, drawn from a generator seeded by Seed — background
	// wire flakiness under the scripted storm. 0 draws nothing, keeping the
	// RNG stream (and so the run) untouched.
	LinkFailRate float64
	// Seed seeds the LinkFailRate draws.
	Seed uint64
}

func (c FaultConfig) withDefaults() FaultConfig {
	if c.MaxTransferRetries == 0 {
		c.MaxTransferRetries = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 0.05
	}
	if c.RetryBackoffCap == 0 {
		c.RetryBackoffCap = 8 * c.RetryBackoff
	}
	return c
}

// validate writes its range checks as "inside" tests so that NaN, which
// fails every comparison, is rejected with them.
func (c FaultConfig) validate(poolSizes []int) error {
	if err := faults.Validate(c.Schedule, poolSizes); err != nil {
		return err
	}
	if !(c.LinkFailRate >= 0 && c.LinkFailRate < 1) {
		return fmt.Errorf("cluster: link fail rate %v outside [0,1)", c.LinkFailRate)
	}
	if c.MaxTransferRetries < 0 {
		return fmt.Errorf("cluster: negative transfer retry bound %d", c.MaxTransferRetries)
	}
	for _, b := range []float64{c.RetryBackoff, c.RetryBackoffCap} {
		if !(b >= 0 && b < math.Inf(1)) {
			return fmt.Errorf("cluster: transfer backoff %v outside [0,+Inf)", b)
		}
	}
	return nil
}

// faultState is the cluster's fault bookkeeping. timed holds the Crash and
// Slowdown faults (indexed by evCrash/evRecover/evSlow/evSlowEnd events);
// linkFails holds the LinkFailure faults, consumed lazily as deliveries
// reach their timestamps — no heap events, so an empty script leaves the
// event sequence untouched.
type faultState struct {
	cfg       FaultConfig
	timed     []faults.Fault
	linkFails []faults.Fault
	linkIdx   int // next linkFails entry not yet armed
	armed     int // scripted delivery failures waiting to fire
	r         *rng.RNG

	lost []*request.Request // terminal losses (no-recovery mode)

	crashes         int
	orphaned        int     // requests evacuated by crashes
	transferRetries int     // failed deliveries re-booked on the link
	rePrefills      int     // transfer fallbacks re-entering via re-prefill
	recovered       int     // closed repair spans
	downSum         float64 // total crash→recover downtime across spans
}

func newFaultState(cfg FaultConfig, poolSizes []int) (*faultState, error) {
	if err := cfg.validate(poolSizes); err != nil {
		return nil, err
	}
	f := &faultState{cfg: cfg.withDefaults()}
	for _, flt := range faults.Sorted(cfg.Schedule) {
		if flt.Kind == faults.LinkFailure {
			f.linkFails = append(f.linkFails, flt)
		} else {
			f.timed = append(f.timed, flt)
		}
	}
	if f.cfg.LinkFailRate > 0 {
		f.r = rng.New(f.cfg.Seed)
	}
	return f, nil
}

// armEvents pushes the timed faults into the cluster's event heap. Called
// from start(), after the pre-fault events are armed, so a fault-free
// schedule changes no sequence numbers.
func (c *Cluster) armFaultEvents() {
	if c.flt == nil {
		return
	}
	for i, flt := range c.flt.timed {
		kind := evCrash
		if flt.Kind == faults.Slowdown {
			kind = evSlow
		}
		c.pushEvent(event{at: flt.At, kind: kind, pool: flt.Pool, rep: i})
	}
}

// failsDelivery reports whether the delivery landing at now is destroyed by
// a link fault: scripted LinkFailure counts armed up to now fire first, then
// the stochastic background rate. Deliveries are handled in nondecreasing
// event time, so the lazy pointer walk is sound.
func (f *faultState) failsDelivery(now float64) bool {
	for f.linkIdx < len(f.linkFails) && f.linkFails[f.linkIdx].At <= now {
		n := f.linkFails[f.linkIdx].Count
		if n < 1 {
			n = 1
		}
		f.armed += n
		f.linkIdx++
	}
	if f.armed > 0 {
		f.armed--
		return true
	}
	return f.r != nil && f.r.Bool(f.cfg.LinkFailRate)
}

// crashReplica handles evCrash: the replica loses its KV pool and every
// request it holds, leaves the accepting set, and begins repair. Orphans are
// recovered through the admission pipeline (Recover) or terminally lost.
func (c *Cluster) crashReplica(ev event) {
	flt := c.flt.timed[ev.rep]
	p := c.pools[flt.Pool]
	rep := p.reps[flt.Replica]
	if rep.down {
		return // already under repair; an overlapping crash extends nothing
	}
	c.flt.crashes++
	if p.plan != nil {
		p.plan.observeCrash()
	}
	rep.downAt = ev.at
	rep.repairAt = ev.at + flt.Duration
	ph := rep.phase
	if ph == draining {
		ph = cold // its work just evaporated; the scale-in was counted
	}
	p.transition(rep, ev.at, ph, true)
	c.pushEvent(event{at: ev.at + flt.Duration, kind: evRecover, pool: flt.Pool, rep: ev.rep})

	orphans := rep.eng.Crash()
	rep.moved(engine.StepOther) // the warm estimator's entries evaporated with the engine's
	c.ensureStepEvent(p, rep)
	c.flt.orphaned += len(orphans)
	if c.rec != nil {
		c.rec.Crash(ev.at, flt.Pool, flt.Replica, len(orphans))
	}
	for _, r := range orphans {
		if c.rec != nil {
			c.rec.Orphan(ev.at, r)
		}
		if !c.flt.cfg.Recover {
			c.lose(ev.at, r, flt.Pool, flt.Replica)
			continue
		}
		// Re-enter at the cluster front with the original ArrivalTime and
		// deadline: the outage charges TTFT, and admission sheds terminally
		// only if the remaining budget cannot cover re-prefill + transfer.
		r.ResetForRetry()
		c.reenter(ev.at, r)
	}
	// The crash may have freed the cluster's only busy replica: give the held
	// queue a chance to force-place (liveness) at this instant.
	if c.adm != nil && len(orphans) > 0 {
		c.scheduleRetry(ev.at)
	}
}

// reenter routes one recovered orphan back into the cluster — through the
// admission pipeline when configured, else directly through the entry pool's
// routing policy.
func (c *Cluster) reenter(now float64, r *request.Request) {
	if c.rec != nil {
		c.rec.Arrive(now, r) // re-entry: the span's TTFT clock reopens
	}
	if c.adm != nil {
		c.adm.arrive(now, r)
		return
	}
	c.place(now, r)
}

// lose ends a request as a terminal fault loss (no-recovery mode), charged
// to the pool and replica it was lost on.
func (c *Cluster) lose(now float64, r *request.Request, pool, rep int) {
	r.MarkFailed(now)
	c.flt.lost = append(c.flt.lost, r)
	if c.rec != nil {
		c.rec.Fail(now, r, pool, rep)
	}
}

// recoverReplica handles evRecover: repair is complete. A provisioned
// replica wakes again, its engine resuming at the recovery instant.
func (c *Cluster) recoverReplica(ev event) {
	flt := c.flt.timed[ev.rep]
	p := c.pools[flt.Pool]
	rep := p.reps[flt.Replica]
	if !rep.down {
		return
	}
	c.flt.recovered++
	c.flt.downSum += ev.at - rep.downAt
	if c.rec != nil {
		c.rec.Recover(ev.at, flt.Pool, flt.Replica)
	}
	if rep.phase == cold {
		p.transition(rep, ev.at, cold, false)
		return
	}
	rep.eng.SyncClock(ev.at)
	p.wake(rep, ev.at)
	if rep.phase == serving && c.adm != nil {
		c.adm.retry(ev.at)
	}
	// Work may have been force-placed on this replica while it was down (the
	// fallback path when every replica was out): serve it now, from the
	// synced clock.
	c.ensureStepEvent(p, rep)
}

// slowReplica / slowEnd handle evSlow / evSlowEnd: the degradation window of
// one Slowdown fault. A new factor re-prices the rest of a coasted run.
func (c *Cluster) slowReplica(ev event) {
	flt := c.flt.timed[ev.rep]
	c.setSlow(flt, flt.Factor)
	c.pushEvent(event{at: ev.at + flt.Duration, kind: evSlowEnd, pool: flt.Pool, rep: ev.rep})
}

func (c *Cluster) slowEnd(ev event) {
	c.setSlow(c.flt.timed[ev.rep], 1)
}

func (c *Cluster) setSlow(flt faults.Fault, factor float64) {
	p := c.pools[flt.Pool]
	rep := p.reps[flt.Replica]
	rep.eng.SetSlowFactor(factor)
	c.ensureStepEvent(p, rep)
}

// failDelivery handles a KV delivery destroyed in flight (link fault, or
// destination crashed while the transfer was on the wire). With recovery the
// handoff retries on the link after a capped exponential backoff; when
// retries exhaust — or the retry could not possibly land inside the deadline
// — the request falls back to re-prefill through the admission pipeline,
// which sheds it terminally only if even that is infeasible. Without
// recovery the request is lost.
func (c *Cluster) failDelivery(ev event) {
	h := c.handoffs.at(ev.rep)
	r := ev.req
	dp := c.pools[c.decode]
	old := dp.reps[h.ToReplica]
	old.pendingIn--
	flt := c.flt
	retryAt := -1.0 // no retry: the request is lost, or falls back to re-prefill
	if flt.cfg.Recover {
		h.Retries++
		at := ev.at + kv.Backoff(flt.cfg.RetryBackoff, flt.cfg.RetryBackoffCap, h.Retries-1)
		feasible := h.Retries <= flt.cfg.MaxTransferRetries
		if feasible && r.TTFTDeadline > 0 && c.link != nil &&
			at+c.link.TransferTime(h.bytes) > r.TTFTDeadline {
			feasible = false // even an unqueued wire cannot land in budget
		}
		if feasible {
			retryAt = at
		}
	}
	if c.rec != nil {
		c.rec.XferFail(ev.at, r, retryAt)
	}
	switch {
	case !flt.cfg.Recover:
		old.routed--
		c.lose(ev.at, r, c.decode, h.ToReplica)
	case retryAt < 0:
		// Fall back to re-prefill: the decode route is undone and the
		// request re-enters at the cluster front. ResetForRetry clears the
		// prefill token, so admission prices a full prefill + fresh transfer
		// against the remaining budget and sheds if it cannot fit.
		flt.rePrefills++
		old.routed--
		r.ResetForRetry()
		c.reenter(ev.at, r)
	default:
		flt.transferRetries++
		c.xferRetries++
		c.pushEvent(event{at: retryAt, kind: evXferRetry, pool: c.decode, rep: ev.rep, req: r})
	}
}

// LostRequests returns every request terminally lost to faults. With
// recovery only a handoff no decode replica will ever take is lost (every
// decode replica down for good); every other orphan completes or is shed.
// Complete after Serve.
func (c *Cluster) LostRequests() []*request.Request {
	if c.flt == nil {
		return nil
	}
	return c.flt.lost
}
