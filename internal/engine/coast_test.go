package engine

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// coastRun drives one engine of a twin pair — the same configuration and
// request stream once as built (decode steps may coast) and once with a no-op
// token hook (the per-token path, which never coasts) — and logs what an
// observer can see. The two logs must be equal line by line.
type coastRun struct {
	t     *testing.T
	seed  uint64
	e     *Engine
	reqs  []*request.Request // every request the case ever submitted
	log   []string
	looks int
}

func (cr *coastRun) logf(format string, args ...any) {
	cr.log = append(cr.log, fmt.Sprintf(format, args...))
}

func (cr *coastRun) submit(rs ...*request.Request) {
	cr.reqs = append(cr.reqs, rs...)
	cr.e.SubmitAll(rs)
}

// glance logs what an observer reads between two Steps without making the
// engine settle; it must already count the owed tokens (EffectFloor prices
// the next decode step off the pool, and refuses to at the memory edge).
func (cr *coastRun) glance() {
	e := cr.e
	cr.logf("clock=%x floor=%x running=%d waiting=%d pure=%v released=%v",
		math.Float64bits(e.Clock()), math.Float64bits(e.EffectFloor()),
		e.RunningLen(), e.WaitingLen(), e.PureDecodeLastStep(), e.ReleasedLastStep())
}

// look calls one settling accessor, a different one each time, and then logs
// the batch and the pool read behind the engine's back: whichever accessor
// ran must have left them as the per-token path has them.
func (cr *coastRun) look() {
	e := cr.e
	var b strings.Builder
	switch cr.looks % 4 {
	case 0:
		e.ForEachRunning(func(*request.Request) {})
	case 1:
		e.RunningRequests()
	case 2:
		e.Pool()
	case 3:
		fmt.Fprintf(&b, " peak=%d", e.Snapshot().PeakUsedTokens)
	}
	cr.looks++
	for _, r := range e.running {
		fmt.Fprintf(&b, " %s/kv=%d", stamp(r), e.pool.AllocatedTokens(r.KV))
	}
	fmt.Fprintf(&b, " used=%d free=%d peak=%d", e.pool.UsedTokens(), e.pool.FreeBlocks(), e.pool.PeakUsedTokens())
	if err := e.pool.CheckInvariants(); err != nil {
		cr.t.Fatalf("look %d: %v", cr.looks, err)
	}
	cr.log = append(cr.log, b.String())
}

// stamp is everything the engine writes on a request, floats bit for bit.
func stamp(r *request.Request) string {
	return fmt.Sprintf("%d:gen=%d,first=%x,last=%x,gap=%x,fin=%x,drop=%x,evict=%d,adm=%d,%v",
		r.ID, r.Generated, math.Float64bits(r.FirstTokenAt), math.Float64bits(r.LastEmitAt),
		math.Float64bits(r.MaxGap), math.Float64bits(r.FinishedAt), math.Float64bits(r.DroppedAt),
		r.Evictions, r.Admissions, r.Outcome)
}

// steps takes up to n Steps, glancing after each and looking after those
// whose number (counted over the whole run) is a multiple of every — sparse
// enough that several tokens are owed at a time. It reports whether the
// engine still has work.
func (cr *coastRun) steps(n, every int) bool {
	for i := 0; i < n; i++ {
		if !cr.e.Step() {
			return false
		}
		cr.glance()
		if cr.e.decodeSteps%every == 0 {
			cr.look()
		}
	}
	return true
}

// finish drains the engine and logs the result field by field and every
// request's final stamp.
func (cr *coastRun) finish() *Result {
	for cr.steps(1000, 13) {
	}
	res := cr.e.Snapshot()
	sc := *res
	sc.Finished, sc.Failed, sc.TimedOut, sc.HandedOff, sc.CoastedSteps = nil, nil, nil, nil, 0
	cr.logf("result %+v finished=%d failed=%d timedout=%d", sc, len(res.Finished), len(res.Failed), len(res.TimedOut))
	for _, r := range cr.reqs {
		cr.logf("final %s", stamp(r))
	}
	cr.look()
	return res
}

// sameLog fails at the first observation the coasting engine's log and its
// per-token twin's disagree on.
func sameLog(t *testing.T, what string, got, ref []string) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d observations, per-token path %d", what, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("%s: observation %d of %d differs\n   coasting: %s\n per-token: %s", what, i, len(ref), got[i], ref[i])
		}
	}
}

// stream draws n requests with exponential gaps of the given mean.
func stream(seed uint64, n int, meanGap float64, maxIn, maxOut int) []*request.Request {
	r := rng.New(seed)
	rs := make([]*request.Request, n)
	at := 0.0
	for i := range rs {
		at += -meanGap * math.Log(1-r.Float64())
		rs[i] = request.New(int64(i+1), 16+r.Intn(maxIn), 8+r.Intn(maxOut), maxOut+8, at)
	}
	return rs
}

func seedHistory(seed uint64, maxOut int) []int {
	r := rng.New(seed + 1000)
	h := make([]int, 64)
	for i := range h {
		h[i] = 8 + r.Intn(maxOut)
	}
	return h
}

func coastSeeds(t *testing.T) []uint64 {
	n := 3
	if s := os.Getenv("CHAOS_SEEDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad CHAOS_SEEDS %q", s)
		}
		n = v
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// coastCase is one scenario: cfg builds the engine's configuration (a fresh
// scheduler each time), drive submits, steps and interferes, ending in
// cr.finish. want checks that the run met what it is there for.
type coastCase struct {
	name    string
	cfg     func(cr *coastRun) Config
	drive   func(cr *coastRun) *Result
	want    func(res *Result) bool
	noCoast bool // the engine must never coast (multi-token blocks)
}

func pastFutureCase(name string, pf func(seed uint64) core.PastFutureConfig) coastCase {
	return coastCase{
		name: name,
		cfg: func(cr *coastRun) Config {
			return Config{Scheduler: core.MustNewPastFuture(pf(cr.seed)), CapacityOverride: 9000,
				SeedHistory: seedHistory(cr.seed, 300)}
		},
		drive: func(cr *coastRun) *Result {
			cr.submit(stream(cr.seed, 80, 0.25, 200, 300)...)
			return cr.finish()
		},
		want: func(res *Result) bool { return len(res.Finished) == 80 && res.PrefillIters > 10 },
	}
}

func memoryEdgeCase(blockSize int) coastCase {
	return coastCase{
		name: fmt.Sprintf("memory-edge/block=%d", blockSize),
		cfg: func(*coastRun) Config {
			return Config{Scheduler: core.MustNewAggressive(1.0), BlockSize: blockSize, CapacityOverride: 1200}
		},
		drive: func(cr *coastRun) *Result {
			// TestDecodeAtTheMemoryEdge's batch: coasting has to stop on the
			// step that would take the last free block.
			for i := 0; i < 24; i++ {
				cr.submit(request.New(int64(i+1), 20+7*(i%5), 30+11*(i%7), 128, 0))
			}
			return cr.finish()
		},
		want:    func(res *Result) bool { return len(res.Finished) == 24 && res.Evictions > 0 },
		noCoast: blockSize > 1,
	}
}

var coastCases = []coastCase{
	pastFutureCase("past-future-sampling", func(seed uint64) core.PastFutureConfig {
		return core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(seed)}
	}),
	pastFutureCase("past-future-deterministic", func(uint64) core.PastFutureConfig {
		return core.PastFutureConfig{Reserved: 0.05, Deterministic: true}
	}),
	memoryEdgeCase(1),
	memoryEdgeCase(16),
	{
		name: "queue-timeout",
		cfg: func(*coastRun) Config {
			return Config{Scheduler: core.MustNewConservative(1.0), CapacityOverride: 1400, QueueTimeout: 0.5}
		},
		drive: func(cr *coastRun) *Result {
			reqs := mkReqs(12, 200, 120, 200)
			for i, r := range reqs {
				r.ArrivalTime = 0.05 * float64(i)
				r.TrueOutputLen -= 7 * i
			}
			cr.submit(reqs...)
			return cr.finish()
		},
		want: func(res *Result) bool { return len(res.TimedOut) > 0 && len(res.Finished) > 0 },
	},
	{
		// A decode engine behind a prefill pool: requests arrive holding
		// their first token, stamped at the KV delivery.
		name: "decode-only-migrated",
		cfg: func(cr *coastRun) Config {
			return Config{Scheduler: core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(cr.seed)}),
				Role: RoleDecodeOnly, CapacityOverride: 9000, SeedHistory: seedHistory(cr.seed, 300)}
		},
		drive: func(cr *coastRun) *Result {
			for _, r := range stream(cr.seed, 60, 0.3, 200, 300) {
				r.EmitToken(r.ArrivalTime + 0.05) // the prefill engine's token
				r.RecordMigration(r.ArrivalTime + 0.08)
				cr.reqs = append(cr.reqs, r)
				cr.e.SubmitMigrated(r, r.DeliveredAt)
			}
			return cr.finish()
		},
		want: func(res *Result) bool { return len(res.Finished) == 60 && res.PrefillComputeTokens == 0 },
	},
	{
		// A first wave leaves the pool full of reclaimable prefix blocks; the
		// second decodes into them. A coasted step may only take blocks that
		// are physically free: reclaiming a cached block moves the physical
		// occupancy series, which the per-token path observes step by step.
		name: "prefix-cache-nearly-full",
		cfg: func(*coastRun) Config {
			return Config{Scheduler: core.MustNewAggressive(1.0), CapacityOverride: 2000,
				PrefixCache: PrefixCacheConfig{Enabled: true, BlockTokens: 16}}
		},
		drive: func(cr *coastRun) *Result {
			for i := 0; i < 8; i++ {
				r := request.New(int64(i+1), 128, 12+i, 64, 0)
				h := uint64(i + 1)
				for b := 0; b < 8; b++ {
					h = kv.PrefixHash(h, uint64(b))
					r.PrefixHashes = append(r.PrefixHashes, h)
				}
				cr.submit(r)
			}
			for i := 0; i < 6; i++ {
				cr.submit(request.New(int64(100+i), 100, 100+9*i, 256, 5))
			}
			return cr.finish()
		},
		want: func(res *Result) bool { return len(res.Finished) == 14 && res.PrefixCache.EvictedBlocks > 0 },
	},
	{
		// A slowdown that begins and ends with tokens owed: the steps inside
		// it are the longest gaps of every request then running. Then the
		// clock is moved under the batch, also with tokens owed: they were
		// emitted before the jump, and the next token's gap spans it.
		name: "slow-factor-and-clock-jump",
		cfg: func(*coastRun) Config {
			return Config{Scheduler: core.MustNewConservative(1.0), CapacityOverride: 20_000}
		},
		drive: func(cr *coastRun) *Result {
			cr.submit(mkReqs(10, 100, 400, 512)...)
			cr.steps(40, 1000)
			cr.e.SetSlowFactor(3)
			cr.steps(17, 1000)
			cr.e.SetSlowFactor(1)
			cr.steps(30, 1000)
			cr.e.SyncClock(cr.e.Clock() + 0.25)
			cr.steps(30, 1000)
			cr.look()
			return cr.finish()
		},
		want: func(res *Result) bool { return len(res.Finished) == 10 },
	},
	{
		name: "crash",
		cfg: func(*coastRun) Config {
			return Config{Scheduler: core.MustNewConservative(1.0), CapacityOverride: 20_000}
		},
		drive: func(cr *coastRun) *Result {
			reqs := mkReqs(10, 100, 300, 512)
			cr.submit(reqs...)
			cr.steps(57, 1000) // crash with tokens owed
			orphans := cr.e.Crash()
			for _, r := range orphans {
				cr.logf("orphan %s", stamp(r))
			}
			cr.look()
			cr.e.SyncClock(cr.e.Clock() + 2)
			for _, r := range orphans {
				r.ResetForRetry()
				cr.e.SubmitAt(r, cr.e.Clock())
			}
			return cr.finish()
		},
		want: func(res *Result) bool { return len(res.Finished) == 10 && res.Finished[0].Retries == 1 },
	},
	{
		name: "run-until",
		cfg: func(*coastRun) Config {
			return Config{Scheduler: core.MustNewConservative(1.0), CapacityOverride: 20_000}
		},
		drive: func(cr *coastRun) *Result {
			cr.submit(mkReqs(10, 100, 300, 512)...)
			res := cr.e.RunUntil(1.5) // stops inside a run of coasted steps
			cr.logf("until clock=%x steps=%d tokens=%d mem=%x peak=%d", math.Float64bits(cr.e.Clock()),
				res.DecodeSteps, res.OutputTokens, math.Float64bits(res.MemUtilization), res.PeakUsedTokens)
			for _, r := range cr.reqs {
				cr.logf("until %s", stamp(r))
			}
			return cr.finish()
		},
		want: func(res *Result) bool { return len(res.Finished) == 10 },
	},
	{
		// An observer inside the step: the hook reads the batch while the
		// step that called it is the latest one owing tokens.
		name: "iteration-hook-reads-batch",
		cfg: func(cr *coastRun) Config {
			n := 0
			return Config{Scheduler: core.MustNewConservative(1.0), CapacityOverride: 20_000,
				Hooks: Hooks{OnIteration: func(now float64, it Iteration) {
					if n++; n%5 != 0 {
						return
					}
					sum := 0
					for _, r := range cr.e.RunningRequests() {
						if it.Kind == "decode" && r.LastEmitAt != now {
							cr.t.Errorf("iteration %d: request %d last emitted at %v, the step ended at %v", n, r.ID, r.LastEmitAt, now)
						}
						sum += r.Generated
					}
					cr.logf("iteration %d kv=%d generated=%d", n, it.KVTokens, sum)
				}}}
		},
		drive: func(cr *coastRun) *Result {
			cr.submit(stream(cr.seed, 30, 0.2, 100, 200)...)
			return cr.finish()
		},
		want: func(res *Result) bool { return len(res.Finished) == 30 },
	},
}

// TestCoastMatchesPerTokenPath pins the O(1) decode step against the step it
// replaces: every case runs twice, and an observer must not be able to tell
// which engine walked its batch on every step — not between Steps, not in the
// Result, not on any request. A case that never coasted fails: it compared
// the per-token path with itself.
func TestCoastMatchesPerTokenPath(t *testing.T) {
	for _, tc := range coastCases {
		for _, seed := range coastSeeds(t) {
			run := func(perToken bool) (*coastRun, *Result) {
				cr := &coastRun{t: t, seed: seed}
				cfg := tc.cfg(cr)
				cfg.Perf = testPerf(t)
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if perToken {
					e.AddTokenHook(func(float64, *request.Request) {})
				}
				cr.e = e
				return cr, tc.drive(cr)
			}
			ref, refRes := run(true)
			got, gotRes := run(false)
			if refRes.CoastedSteps != 0 {
				t.Fatalf("%s seed %d: the engine with a token hook coasted %d steps", tc.name, seed, refRes.CoastedSteps)
			}
			if !tc.want(gotRes) {
				t.Fatalf("%s seed %d: %v; the scenario exercises nothing", tc.name, seed, gotRes)
			}
			if coasted := gotRes.CoastedSteps > 0; coasted == tc.noCoast {
				t.Fatalf("%s seed %d: coasted %d of %d decode steps, want none: %v",
					tc.name, seed, gotRes.CoastedSteps, gotRes.DecodeSteps, tc.noCoast)
			}
			sameLog(t, fmt.Sprintf("%s seed %d", tc.name, seed), got.log, ref.log)
		}
	}
}

// fuzzOp is one operation of FuzzCoastSequence: three bytes, a kind and two
// parameters.
const (
	opSubmit    = iota // input 16+p1%48, output 2+p2%60 tokens, arriving (p2>>6)·0.05 s from now
	opStep             // 1+p1%32 Steps
	opRead             // one settling accessor, then the batch and pool compared raw
	opCrash            // Crash; the orphans retry on the same engine a little later
	opSlow             // SetSlowFactor(1+p1%3)
	opTokenHook        // the coasting engine gets a token hook: per-token from here on
	opRunUntil         // RunUntil((1+p1%8)·0.05 s from now)
	numOps
)

// fuzzConfig picks the scheduler (and a queue timeout) from the first byte;
// the pool is small enough that a few requests reach its edge.
func fuzzConfig(b byte) Config {
	cfg := Config{CapacityOverride: 600}
	switch b % 3 {
	case 0:
		cfg.Scheduler = core.MustNewAggressive(1.0)
	case 1:
		cfg.Scheduler = core.MustNewConservative(1.0)
	case 2:
		cfg.Scheduler = core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(uint64(b))})
		cfg.SeedHistory = seedHistory(uint64(b), 60)
	}
	if b&4 != 0 {
		cfg.QueueTimeout = 1
	}
	return cfg
}

// runFuzzOps applies the operations to one engine of the twin pair and
// returns its log: a glance, the token count and the pool's invariants after
// every operation. The per-token twin carries its token hook from the start
// and starts counting at opTokenHook, where the coasting twin gets its hook:
// tokens owed at that moment were emitted before anyone listened.
func runFuzzOps(t *testing.T, data []byte, perToken bool) (*coastRun, *Result) {
	cr := &coastRun{t: t}
	cfg := fuzzConfig(data[0])
	cfg.Perf = testPerf(t)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cr.e = e
	listening, tokens := false, 0
	count := func(float64, *request.Request) {
		if listening {
			tokens++
		}
	}
	if perToken {
		e.AddTokenHook(count)
	}
	nextID := int64(1)
	for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
		kind, p1, p2 := ops[0]%numOps, int(ops[1]), int(ops[2])
		switch kind {
		case opSubmit:
			cr.submit(request.New(nextID, 16+p1%48, 2+p2%60, 64, e.Clock()+float64(p2>>6)*0.05))
			nextID++
		case opStep:
			for i := 0; i <= p1%32; i++ {
				e.Step()
			}
		case opRead:
			cr.look()
		case opCrash:
			orphans := e.Crash()
			e.SyncClock(e.Clock() + 0.1)
			for _, r := range orphans {
				cr.logf("orphan %s", stamp(r))
				r.ResetForRetry()
				e.SubmitAt(r, e.Clock())
			}
		case opSlow:
			e.SetSlowFactor(float64(1 + p1%3))
		case opTokenHook:
			if !listening && !perToken {
				e.AddTokenHook(count)
			}
			listening = true
		case opRunUntil:
			e.RunUntil(e.Clock() + float64(1+p1%8)*0.05)
		}
		cr.glance()
		cr.logf("op %d tokens=%d", kind, tokens)
		if err := e.pool.CheckInvariants(); err != nil {
			t.Fatalf("after op %d: %v", kind, err)
		}
	}
	res := cr.finish()
	cr.logf("tokens=%d", tokens)
	return cr, res
}

// FuzzCoastSequence interleaves everything that can cut a run of coasted
// steps — arrivals, reads, a crash, a slowdown, a token hook, a deadline —
// on a pool small enough to reach its edge, and requires the coasting engine
// and its per-token twin to agree after every operation.
func FuzzCoastSequence(f *testing.F) {
	var submits []byte // eight requests: more than the pool holds to the end
	for i := byte(0); i < 8; i++ {
		submits = append(submits, opSubmit, 25+3*i, 45+2*i)
	}
	for sched := byte(0); sched < 6; sched++ {
		for cut := byte(0); cut < numOps; cut++ {
			// A batch decodes, an operation cuts the run with tokens owed,
			// the batch decodes on.
			seq := append([]byte{sched}, submits...)
			seq = append(seq, opStep, 12, 0, cut, 45, 200, opStep, 20, 0, opRead, 0, 0)
			f.Add(seq)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 400 {
			return
		}
		ref, refRes := runFuzzOps(t, data, true)
		got, _ := runFuzzOps(t, data, false)
		if refRes.CoastedSteps != 0 {
			t.Fatalf("the engine with a token hook coasted %d steps", refRes.CoastedSteps)
		}
		sameLog(t, "sequence", got.log, ref.log)
	})
}
