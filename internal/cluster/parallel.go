package cluster

// The conservatively batched simulation core (ClusterConfig.Workers > 0).
//
// The reference loop pops one event at a time; at scale almost every pop is
// an evStep, and consecutive steps on *different* replicas are usually
// independent — a step's cluster-visible effects (handoff bookings,
// admission retries, recorder emissions, its own next step event) land at
// or after a floor the engine can price before stepping
// (engine.EffectFloor). The batched core exploits exactly that:
//
//  1. Formation: pop consecutive evStep events while each one's timestamp
//     is strictly below the running minimum of the accepted steps' effect
//     floors. Every accepted step therefore starts before the earliest
//     instant at which any other accepted step could have influenced it —
//     the sequential core would have executed them in the same pre-step
//     states.
//  2. Execution: run the accepted engines' Step()s — concurrently on the
//     worker pool when Workers ≥ 2, inline when Workers == 1 (same
//     machinery, zero goroutines: the coordination-overhead baseline).
//     Each engine owns all state it touches during a step (validated at
//     construction); hook and recorder calls are captured into the
//     replica's EffectBuffer instead of firing.
//  3. Replay: for each batch member *in event-pop order*, replay its
//     buffered effects and run the exact post-step bookkeeping the
//     reference loop runs. Replay is where heap pushes happen, so the
//     event sequence numbers — and therefore every later tie-break — come
//     out identical to the reference run, whatever the goroutine schedule.
//
// Every non-step event is a hard barrier: it is handled alone, exactly as
// the reference handles it. The result is bit-identical output for every
// Workers value, including Workers == 0 (which never enters this file).

import (
	"fmt"
	"math"
	"reflect"
	"sync"

	"github.com/lightllm-go/lightllm/internal/engine"
)

// stepEntry is one accepted batch member, in event-pop order.
type stepEntry struct {
	p   *Pool
	rep *replica
}

// stepRunner is the persistent worker pool: a channel feeding Workers
// goroutines that each run engine steps. One dispatch is a contiguous run of
// a batch: individual steps are microseconds — far below the cost of a
// channel round-trip — so each worker gets one slice per batch instead of one
// step at a time. Created lazily on the first evented serve and stopped when
// it returns, so idle clusters hold no goroutines (test suites build
// thousands of them).
type stepRunner struct {
	workers int
	jobs    chan []stepEntry
	wg      sync.WaitGroup
}

func newStepRunner(workers int) *stepRunner {
	r := &stepRunner{workers: workers, jobs: make(chan []stepEntry, workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for ch := range r.jobs {
				for _, se := range ch {
					se.rep.eng.Step()
				}
				r.wg.Done()
			}
		}()
	}
	return r
}

// run executes one step batch over n ≤ workers even contiguous ranges and
// waits for every member. Effects were deferred into per-replica buffers, so
// the only cross-goroutine state is the job channel and the wait group;
// the caller may reuse the batch slice after return.
func (r *stepRunner) run(batch []stepEntry) {
	k, n := len(batch), r.workers
	if k < n {
		n = k
	}
	r.wg.Add(n)
	for i := 0; i < n; i++ {
		r.jobs <- batch[i*k/n : (i+1)*k/n]
	}
	r.wg.Wait()
}

func (r *stepRunner) stop() { close(r.jobs) }

// validateParallel rejects configurations whose replicas share mutable
// state: a *engine.Engine appearing twice, or two engines sharing one
// scheduler instance (pointer-shaped schedulers only — value-type
// schedulers are copied at interface assignment and cannot alias).
// Concurrent steps on shared state would race; the reference core
// tolerates such sharing, so this is checked only when Workers > 0.
func (c *Cluster) validateParallel() error {
	engines := make(map[*engine.Engine]string)
	scheds := make(map[uintptr]string)
	for _, p := range c.pools {
		for _, rep := range p.reps {
			id := fmt.Sprintf("pool %d replica %d", p.id, rep.idx)
			if prev, ok := engines[rep.eng]; ok {
				return fmt.Errorf("cluster: Workers > 0 needs exclusive engine ownership; %s shares an engine with %s", id, prev)
			}
			engines[rep.eng] = id
			v := reflect.ValueOf(rep.eng.Scheduler())
			switch v.Kind() {
			case reflect.Ptr, reflect.Map, reflect.Slice, reflect.Chan, reflect.Func, reflect.UnsafePointer:
				if prev, ok := scheds[v.Pointer()]; ok {
					return fmt.Errorf("cluster: Workers > 0 needs exclusive scheduler ownership; %s shares a %T with %s", id, rep.eng.Scheduler(), prev)
				}
				scheds[v.Pointer()] = id
			}
		}
	}
	return nil
}

// advanceBatched is advanceTo for the batched core: identical event
// admission boundary (plus evArrive, which only this core's serve loop
// pushes), with runs of independent evStep events executed as batches.
func (c *Cluster) advanceBatched(t float64) {
	for c.events.Len() > 0 {
		top := c.events.top()
		if top.at > t || (top.at == t && top.kind != evActivate && top.kind != evArrive) {
			return
		}
		if top.kind != evStep {
			// Non-step events probe or mutate cluster-wide state (routing,
			// admission, the link, fault schedules) whose order against steps
			// is meaningful: handle them alone, exactly as the reference does.
			c.popped++
			c.handle(c.events.pop())
			continue
		}

		// Formation: accept consecutive steps while each starts strictly
		// before every already-accepted step's effect floor. The strict
		// comparison matters — an effect landing exactly at a pending step's
		// timestamp pops first sequentially (effect kinds order before
		// evStep), so that step must not join the batch.
		c.batch = c.batch[:0]
		minFloor := math.Inf(1)
		for c.events.Len() > 0 {
			top := c.events.top()
			if top.kind != evStep || top.at >= t || top.at >= minFloor {
				break
			}
			ev := c.events.pop()
			c.popped++
			p := c.pools[ev.pool]
			rep := p.reps[ev.rep]
			rep.inHeap = false
			if rep.down {
				continue // stale step on a crashed replica; recovery re-arms
			}
			if f := rep.eng.EffectFloor(); f < minFloor {
				minFloor = f
			}
			c.batch = append(c.batch, stepEntry{p: p, rep: rep})
		}
		if len(c.batch) == 0 {
			continue // every popped step was stale
		}
		c.batches++
		c.batchedSteps += int64(len(c.batch))

		// Execution. A singleton batch skips the pool: channel round-trips
		// cost more than the step.
		if c.runner != nil && len(c.batch) > 1 {
			c.runner.run(c.batch)
		} else {
			for _, se := range c.batch {
				se.rep.eng.Step()
			}
		}

		// Replay, in pop order: buffered effects first (hooks and recorder
		// emissions in their in-step firing order), then the same post-step
		// bookkeeping the reference's evStep arm runs. All heap pushes happen
		// here, sequentially, so event sequence numbers match the reference.
		for _, se := range c.batch {
			p, rep := se.p, se.rep
			rep.buf.Replay()
			rep.moved(rep.eng.PureDecodeLastStep())
			if rep.draining && p.drained(rep) {
				p.retire(rep, rep.eng.Clock())
			}
			c.ensureStepEvent(p, rep)
			if c.adm != nil && rep.eng.ReleasedLastStep() {
				c.scheduleRetry(rep.eng.Clock())
			}
		}
	}
}
