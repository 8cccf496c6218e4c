package engine

import "github.com/lightllm-go/lightllm/internal/request"

// stepStatic executes one iteration of the static-batching mode (Table 2's
// "origin" multimodal implementations): fixed-size batches, every prompt
// padded to the longest in the batch, and the batch runs until its *longest*
// output finishes — no request joins or leaves mid-flight.
func (e *Engine) stepStatic() bool {
	if len(e.staticBatch) == 0 {
		if e.queue.Len() == 0 {
			// Wait for arrivals, if any.
			if e.arrivals.Len() > 0 {
				next := e.arrivals[0].r.ArrivalTime
				if next > e.clock {
					e.observe(next)
					e.clock = next
				}
				e.moveArrivals()
				return true
			}
			return false
		}
		return e.formStaticBatch()
	}
	return e.stepStaticDecode()
}

// formStaticBatch admits up to StaticBatchSize requests, pads every prompt
// to the batch maximum, and runs the fused (padded) prefill.
func (e *Engine) formStaticBatch() bool {
	take := e.cfg.StaticBatchSize
	if take > e.queue.Len() {
		take = e.queue.Len()
	}
	headMax := func(k int) int {
		m := 0
		for i := 0; i < k; i++ {
			if in := e.queue.At(i).InputLen; in > m {
				m = in
			}
		}
		return m
	}
	maxIn := headMax(take)
	// Reduce the batch until the padded prompts fit in memory.
	for take > 0 && !e.pool.CanAllocate(maxIn*take) {
		take--
		maxIn = headMax(take)
	}
	if take == 0 {
		e.failRequest(e.queue.PopFront())
		return true
	}
	for i := 0; i < take; i++ {
		r := e.queue.PopFront()
		h, ok := e.pool.Allocate(maxIn) // padded to the longest prompt
		if !ok {
			e.failRequest(r)
			continue
		}
		r.KV = h
		r.State = request.Running
		r.Admissions++
		e.admissions++
		e.inputTokens += int64(r.InputLen)
		e.staticBatch = append(e.staticBatch, r)
	}
	if len(e.staticBatch) == 0 {
		return true
	}
	// Padded prefill: compute cost covers maxIn tokens per request. First
	// tokens are emitted by the following decode steps.
	dur := e.scaled(e.cfg.Perf.PrefillTime(maxIn * len(e.staticBatch)))
	e.prefillComputeTokens += int64(maxIn * len(e.staticBatch))
	e.clock += dur
	e.prefillIters++
	e.observe(e.clock)
	e.iterationHook("static", dur, len(e.staticBatch))
	return true
}

// stepStaticDecode runs one decode step at full batch width: finished
// requests still occupy a batch lane (padding) until the longest completes.
func (e *Engine) stepStaticDecode() bool {
	n := len(e.staticBatch)
	kvTokens := e.pool.UsedTokens() + n
	dur := e.scaled(e.cfg.Perf.DecodeTime(n, kvTokens))
	e.clock += dur
	e.decodeSteps++
	allDone := true
	for _, r := range e.staticBatch {
		e.pool.Extend(r.KV, 1) // padding: every lane grows
		if r.Done() {
			continue // finished lane, pure padding waste
		}
		r.EmitToken(e.clock)
		if e.cfg.Hooks.OnToken != nil {
			e.cfg.Hooks.OnToken(e.clock, r)
		}
		e.outputTokens++
		if !r.Done() {
			allDone = false
		}
	}
	e.finishStaticDone()
	if allDone {
		// Whole batch complete: release all lanes.
		for _, r := range e.staticBatch {
			e.free(r)
		}
		e.staticBatch = e.staticBatch[:0]
	}
	e.observe(e.clock)
	e.iterationHook("static", dur, n)
	return true
}

// finishStaticDone records completions (metrics + history) while keeping
// the lanes allocated until the batch drains.
func (e *Engine) finishStaticDone() {
	for _, r := range e.staticBatch {
		if r.State == request.Finished || !r.Done() {
			continue
		}
		r.Finish(e.clock)
		e.recordFinishedLength(r.Class, r.TrueOutputLen)
		e.finished = append(e.finished, r)
		e.released = true
		if e.cfg.Hooks.OnFinish != nil {
			e.cfg.Hooks.OnFinish(e.clock, r)
		}
	}
}
