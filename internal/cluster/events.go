package cluster

import "github.com/lightllm-go/lightllm/internal/request"

// The cluster is driven by one typed min-heap of simulation events — a
// single clock shared by every pool. The five event kinds interleave with
// the (externally sorted) arrival stream:
//
//   - evActivate: a scaling-out replica finishes its activation delay and
//     starts accepting traffic.
//   - evXfer: a prefill-only engine finished a prompt at this instant and
//     the handoff is ready to book on the KV link. Handoffs are deferred to
//     events instead of booked inside the engine step so the link sees them
//     in issue-time order: engine steps pop by their *start* time, so a step
//     spanning [4.0, 5.0] executes before one spanning [4.5, 4.8], and
//     booking eagerly would queue the 4.8 handoff behind the 5.0 one.
//     The transfer-boundary shed check and the contention-aware decode pick
//     both run when this event fires.
//   - evDeliver: a KV handoff lands on the decode side of the transfer
//     link; the request enters its pre-picked decode replica.
//   - evPlan: a periodic autoscaler evaluation for one pool (the SLA
//     planner's adjustment interval, or the reactive policy's optional
//     tick).
//   - evStep: a busy replica's engine is due for its next real iteration —
//     one that is not a coasted decode step (engine.CoastEnd). It is either
//     the one step at the replica's clock, or the end of a run of coasted
//     steps: the engine can price such a run before taking it, and nothing
//     in it is visible to anyone but the replica, so the run costs one heap
//     event instead of one per step. A replica holds at most one live step
//     event; rep.stepSeq names it, and an event whose sequence number is not
//     its replica's is stale — superseded when the cluster changed the
//     engine under the run — and is popped and dropped.
//   - evRetry: cluster-front admission re-examines its held queue. A step
//     that released capacity does so at its *end* time, so — like evXfer —
//     the retry is deferred to an event rather than run inline: an eager
//     retry at the step's end clock could shed a head that an
//     earlier-timestamped event still in the heap would have placed.
//
// Advancing the cluster to an arrival time t pops events while their time
// is before t (activations exactly at t also fire, because a replica whose
// delay elapses at t must be eligible for that arrival — the same `t >=
// wakeAt` edge the scan-based router used). Each popped evStep runs exactly
// one real engine iteration and, if the engine is still busy, re-inserts
// itself at the end of the engine's next run (its new clock when the next
// step does not coast). Per event the cost is O(log(R+E)) heap work.
//
// Catching up. Between its step events a coasting replica's engine trails
// the cluster: it has not taken the coasted steps that the per-step loop —
// one event per step — would have popped by now. Anything that reads or
// changes an engine must see the per-step state, so before the cluster
// handles an arrival or any non-step event at (t, kind), every coasting
// replica takes the coasted steps that would have popped first: those that
// start before t, and those that start at t when kind sorts after evStep.
// Heap order is (time, kind, seq): a step at t pops before a same-instant
// retry, crash, recovery, slowdown or transfer retry, and after a
// same-instant activation, booking, delivery or plan; an arrival at t is
// handled once the events before t and the activations at t have popped, so
// it sees no step at t either. The steps are counted into the replica's
// probe lag as the per-step loop would have. A step event pops only after
// its own replica caught up to it; no other replica needs to: a step reads
// and changes nothing but its own engine. When a handler then changes an
// engine under a run — a placement, a crash, a slowdown or its end, a clock
// sync — the run ends elsewhere, and ensureStepEvent supersedes its event.
// A run-end event that finds its replica's clock anywhere but at the event's
// time panics: someone changed the engine without superseding.

// evKind orders simultaneous events: activations first (so a replica waking
// exactly at an arrival's timestamp can receive it; arrivals themselves are
// not events, they are handled once every event before them popped), then
// handoff bookings (the wire must be priced before later work observes it),
// then KV deliveries (a landed handoff is routable work), then autoscaler
// evaluations, then engine steps.
type evKind uint8

const (
	evActivate evKind = iota
	evXfer
	evDeliver
	evPlan
	evStep
	// evRetry sorts after the kinds above so a same-instant activation,
	// delivery, or step has already exposed its capacity when the held queue
	// re-examines.
	evRetry
	// Fault-injection kinds (faults.go). Appended after the pre-fault kinds
	// so every same-instant ordering above is untouched — a run with no
	// faults scheduled is event-for-event identical to the pre-fault heap.
	// A crash at the same instant as a step lands after the step: the
	// iteration that was already executing when the machine died still
	// completes (its effects were in flight), the next one does not.
	//
	//   - evCrash / evRecover: a replica fails at its scheduled instant and
	//     rejoins when its repair span elapses. ev.rep indexes the fault
	//     schedule (which names pool + replica), not a replica.
	//   - evSlow / evSlowEnd: a transient service-time degradation starts /
	//     clears. ev.rep indexes the fault schedule.
	//   - evXferRetry: a failed KV delivery re-books on the link after its
	//     backoff. Deferred to an event — like evXfer — so the link sees
	//     bookings in nondecreasing issue-time order. ev.rep is the handoff
	//     index, as for evDeliver.
	evCrash
	evRecover
	evSlow
	evSlowEnd
	evXferRetry
)

type event struct {
	at   float64
	kind evKind
	pool int // owning pool for evActivate/evPlan/evStep; target pool for evXfer/evDeliver
	rep  int // replica index for evActivate/evStep; source replica for evXfer; handoff index for evDeliver
	seq  int64
	req  *request.Request // the migrating request for evXfer/evDeliver
}

// eventBefore orders the cluster's events by (time, kind, seq), with the
// handoff tie-break below for same-instant bookings.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.kind == evXfer {
		// Handoffs issued at the exact same instant book deterministically:
		// earliest-arrived user first (then request ID), not whichever
		// engine's step event happened to pop first.
		ra, rb := a.req, b.req
		if ra.ArrivalTime != rb.ArrivalTime {
			return ra.ArrivalTime < rb.ArrivalTime
		}
		if ra.ID != rb.ID {
			return ra.ID < rb.ID
		}
	}
	return a.seq < b.seq
}
