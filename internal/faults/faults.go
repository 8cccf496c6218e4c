// Package faults defines deterministic fault schedules for the cluster
// simulator: replica crashes, KV-link transfer failures, and slow-replica
// degradation, injected through the cluster's typed event heap.
//
// Two construction styles cover the two consumers. Tests script one-shot
// faults directly (a Script literal pins exactly when and where adversity
// lands), while scenarios draw per-replica MTBF/MTTR stochastic processes
// from a seeded RNG (Generate) — deterministic for a fixed seed, like every
// other experiment in this repository. The package only *describes* faults;
// the cluster layer owns their semantics (what a crash orphans, how a failed
// transfer retries).
package faults

import (
	"fmt"
	"math"
	"sort"

	"github.com/lightllm-go/lightllm/internal/rng"
)

// Kind is a fault class.
type Kind int

const (
	// Crash takes one replica down at At: its KV pool and all in-flight or
	// queued requests are lost, it stops accepting traffic, and it begins
	// repair. The replica rejoins Duration seconds later (plus its pool's
	// re-activation delay).
	Crash Kind = iota
	// LinkFailure makes the next Count KV-link deliveries at or after At
	// fail in flight (the booked transfer is lost on the wire and must be
	// retried or the request re-prefilled).
	LinkFailure
	// Slowdown multiplies one replica's iteration durations by Factor for
	// Duration seconds — a degraded (thermally throttled, noisy-neighbor)
	// replica whose observed latency drifts away from the perf model's
	// prediction, exercising the planner's correction factors.
	Slowdown
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case LinkFailure:
		return "link-failure"
	case Slowdown:
		return "slowdown"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scheduled fault.
type Fault struct {
	// At is the injection time in simulated seconds.
	At float64
	// Kind selects the fault class.
	Kind Kind
	// Pool and Replica locate the victim for Crash and Slowdown.
	Pool, Replica int
	// Duration is the repair time for Crash and the degradation span for
	// Slowdown, seconds.
	Duration float64
	// Factor is the Slowdown service-time multiplier (> 1).
	Factor float64
	// Count is how many deliveries a LinkFailure fails (0 selects 1).
	Count int
}

// Script is a hand-written fault schedule, the test-facing construction.
type Script []Fault

// Validate checks a schedule against a cluster shape: poolSizes[p] is the
// replica count of pool p. Its range checks are written as "inside" tests so
// that NaN, which fails every comparison, is rejected with them. An infinite
// Duration is a permanent crash or slowdown.
func Validate(s []Fault, poolSizes []int) error {
	for i, f := range s {
		if !(f.At >= 0 && f.At < math.Inf(1)) {
			return fmt.Errorf("faults: fault %d at time %v outside [0,+Inf)", i, f.At)
		}
		switch f.Kind {
		case Crash, Slowdown:
			if f.Pool < 0 || f.Pool >= len(poolSizes) {
				return fmt.Errorf("faults: fault %d targets pool %d of %d", i, f.Pool, len(poolSizes))
			}
			if f.Replica < 0 || f.Replica >= poolSizes[f.Pool] {
				return fmt.Errorf("faults: fault %d targets replica %d of %d in pool %d",
					i, f.Replica, poolSizes[f.Pool], f.Pool)
			}
			if !(f.Duration > 0) {
				return fmt.Errorf("faults: fault %d has duration %v outside (0,+Inf]", i, f.Duration)
			}
			if f.Kind == Slowdown && !(f.Factor > 1 && f.Factor < math.Inf(1)) {
				return fmt.Errorf("faults: slowdown %d has factor %v outside (1,+Inf)", i, f.Factor)
			}
		case LinkFailure:
			if f.Count < 0 {
				return fmt.Errorf("faults: link failure %d has negative count %d", i, f.Count)
			}
		default:
			return fmt.Errorf("faults: fault %d has unknown kind %v", i, f.Kind)
		}
	}
	return nil
}

// Sorted returns a copy of the schedule in injection order (At, then the
// original index for determinism on ties).
func Sorted(s []Fault) []Fault {
	out := append([]Fault(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Generate draws a crash schedule for one pool from per-replica MTBF/MTTR
// exponential processes: each replica alternates up spans (mean mtbf) and
// down spans (mean mttr) from time 0 to horizon. The schedule is a
// deterministic function of the RNG state — replicas consume the stream in
// index order — so a seeded RNG reproduces the same storm every run.
func Generate(r *rng.RNG, pool, replicas int, mtbf, mttr, horizon float64) Script {
	if mtbf <= 0 || mttr <= 0 {
		panic(fmt.Sprintf("faults: non-positive MTBF/MTTR (%v, %v)", mtbf, mttr))
	}
	var s Script
	for rep := 0; rep < replicas; rep++ {
		t := r.Exp(mtbf)
		for t < horizon {
			d := r.Exp(mttr)
			s = append(s, Fault{At: t, Kind: Crash, Pool: pool, Replica: rep, Duration: d})
			t += d + r.Exp(mtbf)
		}
	}
	return Script(Sorted(s))
}
