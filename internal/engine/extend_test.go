package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/request"
)

// TestDecodeAtTheMemoryEdge decodes with the KV pool nearly full, where
// ensureExtendable's per-request count decides: an aggressive scheduler
// packs 24 growing requests into a pool that cannot hold their outputs, so
// for most of the run fewer blocks are available than requests are running.
// The eviction sequence (victim@generated, in order) is pinned to what the
// per-request count alone produced at commit f9ec57c, and the run must pass
// through all three regimes: a free block for every request (the count is
// skipped), fewer than that but enough (counted, nobody evicted — only
// possible with multi-token blocks, where most requests need none), and too
// few (evictions).
func TestDecodeAtTheMemoryEdge(t *testing.T) {
	for _, tc := range []struct {
		blockSize int
		want      string
	}{
		{1, goldenEvictions1},
		{16, goldenEvictions16},
	} {
		var evicted []string
		e, err := New(Config{
			Perf:             testPerf(t),
			Scheduler:        core.MustNewAggressive(1.0),
			BlockSize:        tc.blockSize,
			CapacityOverride: 1200,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			e.Submit(request.New(int64(i+1), 20+7*(i%5), 30+11*(i%7), 128, 0))
		}
		roomy, tightNoEvict, tightEvict := 0, 0, 0
		for {
			running, avail, before := e.RunningLen(), e.Pool().AvailableBlocks(), e.res.Evictions
			if !e.Step() {
				break
			}
			// A step's victims wait at the queue front, the last one first.
			for i := e.res.Evictions - before - 1; i >= 0; i-- {
				r := e.queue.At(i)
				evicted = append(evicted, fmt.Sprintf("%d@%d", r.ID, r.Generated))
			}
			switch {
			case running == 0:
			case running <= avail:
				roomy++
			case e.res.Evictions == before:
				tightNoEvict++
			default:
				tightEvict++
			}
		}
		if got := strings.Join(evicted, " "); got != tc.want {
			t.Errorf("block size %d: evictions\n got %s\nwant %s", tc.blockSize, got, tc.want)
		}
		if roomy == 0 || tightEvict == 0 || (tc.blockSize > 1 && tightNoEvict == 0) {
			t.Errorf("block size %d: %d roomy, %d tight-without-eviction, %d tight-with-eviction steps; every regime must occur",
				tc.blockSize, roomy, tightNoEvict, tightEvict)
		}
		if res := e.Snapshot(); len(res.Finished) != 24 {
			t.Errorf("block size %d: finished %d of 24", tc.blockSize, len(res.Finished))
		}
		if err := e.Pool().CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

const (
	goldenEvictions1  = "24@16 23@19 22@21 21@23 20@26 19@29 22@22 21@27 20@32 22@25 21@33 20@42 24@18 24@20"
	goldenEvictions16 = "24@7 24@7 24@7 24@7 24@7 24@7 23@12 22@14 21@16 20@16 20@16 20@16 20@16 20@16 20@16 19@23 18@28 20@16 19@30 18@37 21@19 20@21 24@8 23@15 22@23 24@11"
)
