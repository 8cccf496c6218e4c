package engine

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// testPerfQuick is a shared perf model for property tests that cannot take
// *testing.T in their closure.
var testPerfQuick = perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})

// Cross-scheduler integration invariants: every scheduler family must
// uphold the engine's conservation laws on every workload shape and
// capacity, and the oracle's zero-eviction guarantee must hold everywhere.

type integrationCase struct {
	name     string
	capacity int
	inLo     int
	inHi     int
	outLo    int
	outHi    int
	maxNew   int
	n        int
}

func integrationCases() []integrationCase {
	return []integrationCase{
		{"tiny-decode-heavy", 800, 10, 40, 30, 120, 200, 30},
		{"small-balanced", 3000, 50, 200, 50, 200, 256, 60},
		{"prefill-heavy", 8000, 400, 1200, 10, 100, 256, 40},
		{"long-outputs", 20_000, 50, 200, 500, 2000, 4096, 50},
	}
}

func integrationSchedulers(seed uint64) map[string]core.Scheduler {
	return map[string]core.Scheduler{
		"oracle":       core.NewOracle(),
		"conservative": core.MustNewConservative(1.0),
		"aggressive":   core.MustNewAggressive(0.98),
		"past-future": core.MustNewPastFuture(core.PastFutureConfig{
			Reserved: 0.05, Rng: rng.New(seed),
		}),
	}
}

func TestIntegrationInvariantsAcrossSchedulers(t *testing.T) {
	for _, tc := range integrationCases() {
		for name, sched := range integrationSchedulers(1) {
			t.Run(fmt.Sprintf("%s/%s", tc.name, name), func(t *testing.T) {
				e := MustNew(Config{
					Perf:             testPerf(t),
					Scheduler:        sched,
					CapacityOverride: tc.capacity,
				})
				r := rng.New(7)
				var totalTrueOut int64
				for i := 0; i < tc.n; i++ {
					req := request.New(int64(i+1), r.IntRange(tc.inLo, tc.inHi),
						r.IntRange(tc.outLo, tc.outHi), tc.maxNew, float64(i)*0.01)
					totalTrueOut += int64(req.TrueOutputLen)
					e.Submit(req)
				}
				res := e.Run()

				// Conservation: every request finished or failed; every
				// finished request produced exactly its true output.
				if len(res.Finished)+len(res.Failed) != tc.n {
					t.Fatalf("conservation: fin=%d fail=%d of %d",
						len(res.Finished), len(res.Failed), tc.n)
				}
				var emitted int64
				for _, req := range res.Finished {
					if req.Generated != req.TrueOutputLen {
						t.Fatalf("request %d: %d of %d tokens", req.ID, req.Generated, req.TrueOutputLen)
					}
					if req.Outcome != request.OutcomeCompleted {
						t.Fatalf("request %d state %v", req.ID, req.Outcome)
					}
					emitted += int64(req.Generated)
				}
				if res.OutputTokens != emitted {
					t.Fatalf("token accounting: result %d vs requests %d", res.OutputTokens, emitted)
				}
				// Memory fully released and self-consistent.
				if e.Pool().UsedTokens() != 0 {
					t.Fatalf("leaked %d tokens", e.Pool().UsedTokens())
				}
				if err := e.Pool().CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				// The oracle never evicts, on any workload.
				if name == "oracle" && res.Evictions != 0 {
					t.Fatalf("oracle evicted %d times", res.Evictions)
				}
				// Conservative without overcommit never evicts either.
				if name == "conservative" && res.Evictions != 0 {
					t.Fatalf("conservative evicted %d times", res.Evictions)
				}
				// Time moved forward and tokens flowed.
				if res.Duration <= 0 && len(res.Finished) > 0 {
					t.Fatal("no simulated time elapsed")
				}
			})
		}
	}
}

func TestIntegrationChunkedInvariants(t *testing.T) {
	for _, tc := range integrationCases() {
		t.Run(tc.name, func(t *testing.T) {
			e := MustNew(Config{
				Perf:             testPerf(t),
				Scheduler:        core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(2)}),
				MaxPrefillTokens: 128,
				CapacityOverride: tc.capacity,
				Chunked:          ChunkConfig{Enabled: true},
			})
			r := rng.New(8)
			for i := 0; i < tc.n; i++ {
				e.Submit(request.New(int64(i+1), r.IntRange(tc.inLo, tc.inHi),
					r.IntRange(tc.outLo, tc.outHi), tc.maxNew, 0))
			}
			res := e.Run()
			if len(res.Finished)+len(res.Failed) != tc.n {
				t.Fatalf("fin=%d fail=%d of %d", len(res.Finished), len(res.Failed), tc.n)
			}
			if e.Pool().UsedTokens() != 0 {
				t.Fatalf("leaked %d tokens", e.Pool().UsedTokens())
			}
		})
	}
}

func TestQuickEngineConservation(t *testing.T) {
	// Property: for any random small workload, scheduler choice, block size
	// and capacity, the engine conserves requests and memory.
	type spec struct {
		Seed    uint64
		CapRaw  uint16
		Block   uint8
		Sched   uint8
		NumReqs uint8
	}
	f := func(s spec) bool {
		capacity := 500 + int(s.CapRaw%4000)
		blockSize := 1
		if s.Block%2 == 1 {
			blockSize = 16
		}
		var sched core.Scheduler
		switch s.Sched % 4 {
		case 0:
			sched = core.NewOracle()
		case 1:
			sched = core.MustNewConservative(1.0 + float64(s.Sched%3)*0.25)
		case 2:
			sched = core.MustNewAggressive(0.90)
		default:
			sched = core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(s.Seed)})
		}
		e := MustNew(Config{
			Perf:             testPerfQuick,
			Scheduler:        sched,
			BlockSize:        blockSize,
			CapacityOverride: capacity,
		})
		r := rng.New(s.Seed)
		n := int(s.NumReqs%20) + 1
		for i := 0; i < n; i++ {
			e.Submit(request.New(int64(i+1), r.IntRange(5, 100), r.IntRange(1, 150), 200, 0))
		}
		res := e.Run()
		if len(res.Finished)+len(res.Failed) != n {
			return false
		}
		if e.Pool().UsedTokens() != 0 || e.Pool().CheckInvariants() != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
