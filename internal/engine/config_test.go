package engine

import (
	"math"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// fuzzStepBound is how many Steps an engine built from a fuzzed Config may
// take to serve fuzzBatch: far more than its worst case (one-token chunks
// under a one-token budget, evictions re-encoding their prompts), far fewer
// than an engine that steps without serving anyone takes to be noticed.
const fuzzStepBound = 200_000

// fuzzBatch is the batch FuzzEngineConfig serves: requests of group > 0
// share that group's prompt prefix, and two arrive while others run.
var fuzzBatch = []struct {
	in, out, group int
	at             float64
}{
	{40, 8, 1, 0}, {120, 20, 1, 0}, {16, 1, 0, 0}, {300, 12, 2, 0.5}, {64, 30, 2, 0}, {8, 3, 0, 2},
}

// FuzzEngineConfig holds New to its contract over Config's numeric fields,
// NaN and ±Inf included: it returns an error, or an engine that serves
// fuzzBatch within fuzzStepBound Steps, ending with an empty KV pool and
// every request in exactly one terminal list. It never panics. The committed
// corpus holds configurations New must reject: a negative static batch, a
// block larger than the pool, and out-of-range role, eviction and
// chunk-policy values.
func FuzzEngineConfig(f *testing.F) {
	f.Add(0, 0, 0, 0, 4000, 0.0, 0, 0, false, 0, 0, false, 0, 0, 0)
	f.Add(16, 50, 64, 0, 2000, 1.5, 1, 1, true, 1, 32, true, 32, -1, 2)
	f.Add(1, 0, 0, 3, 1500, 0.0, 0, 0, false, 0, 0, true, 0, 0, 1)
	f.Add(0, 0, 0, 0, 3000, math.Inf(1), 0, 0, true, 1, 0, false, 0, 0, 3)
	f.Add(0, 0, 0, 0, 3000, math.Inf(-1), 0, 0, true, 1, 0, false, 0, 0, 0)
	f.Fuzz(func(t *testing.T, blockSize, historyWindow, maxPrefill, staticSize, capacity int, queueTimeout float64,
		role, eviction int, chunked bool, chunkPolicy, chunkTokens int, prefix bool, prefixBlock, offload, sched int) {
		var s core.Scheduler
		switch sched & 3 {
		case 0:
			s = core.MustNewConservative(1.0)
		case 1:
			s = core.MustNewAggressive(0.95)
		case 2:
			s = core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(1)})
		default:
			s = core.NewOracle()
		}
		e, err := New(Config{
			Perf:             testPerfQuick,
			Scheduler:        s,
			BlockSize:        blockSize,
			HistoryWindow:    historyWindow,
			Role:             Role(role),
			MaxPrefillTokens: maxPrefill,
			StaticBatchSize:  staticSize,
			CapacityOverride: capacity,
			Eviction:         EvictionPolicy(eviction),
			QueueTimeout:     queueTimeout,
			PrefixCache:      PrefixCacheConfig{Enabled: prefix, BlockTokens: prefixBlock, OffloadCapacityTokens: offload},
			Chunked:          ChunkConfig{Enabled: chunked, Policy: ChunkPolicy(chunkPolicy), ChunkTokens: chunkTokens},
		})
		if err != nil {
			return
		}
		bt := max(e.cfg.PrefixCache.BlockTokens, 1)
		for i, b := range fuzzBatch {
			r := request.New(int64(i+1), b.in, b.out, 64, b.at)
			r.TTFTDeadline = b.at + 5
			if b.group > 0 {
				h := uint64(b.group)
				for k := 0; k < b.in/bt; k++ {
					h = kv.PrefixHash(h, uint64(k))
					r.PrefixHashes = append(r.PrefixHashes, h)
				}
			}
			e.Submit(r)
		}
		steps := 0
		for e.Step() {
			if steps++; steps > fuzzStepBound {
				t.Fatalf("%d steps without draining (%d waiting, %d running)", fuzzStepBound, e.WaitingLen(), e.RunningLen())
			}
		}
		if used := e.Pool().UsedTokens(); used != 0 {
			t.Fatalf("drained engine holds %d KV tokens", used)
		}
		if err := e.Pool().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		res := e.Snapshot()
		seen := map[int64]int{}
		for _, list := range [][]*request.Request{res.Finished, res.Failed, res.TimedOut, res.HandedOff} {
			for _, r := range list {
				seen[r.ID]++
			}
		}
		for i := range fuzzBatch {
			if n := seen[int64(i+1)]; n != 1 {
				t.Fatalf("request %d is in %d terminal lists", i+1, n)
			}
		}
	})
}
