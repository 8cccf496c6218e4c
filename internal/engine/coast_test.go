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
	"github.com/lightllm-go/lightllm/internal/obs"
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
	sched *countingScheduler // the engine's scheduler, counting its rounds
	reqs  []*request.Request // every request the case ever submitted
	log   []string
	looks int
	// refusedCoasts counts the Steps that held an admission round and
	// coasted: the round admitted nothing.
	refusedCoasts int
	// Coasted Steps at a boundary where the batch changes: one on which a
	// request finished (finishCoasts), and one that gave the requests
	// prefilled since the last decode step their first decode token
	// (freshCoasts) — after two prefills or more in a row (afterPrefills), or
	// with a re-admitted request among them (readmitted). prefills counts the
	// prefills since the last decode step, fresh holds what they admitted.
	finishCoasts, freshCoasts, afterPrefills, readmitted int
	prefills                                             int
	fresh                                                []*request.Request
}

// eventLog is a recorder that logs every event an engine sends it, in order,
// floats bit for bit: first tokens and finishes must reach an observer at the
// same times and in the same order on both paths.
type eventLog struct {
	obs.Recorder // the cluster's events: an engine sends none of them
	cr           *coastRun
}

func (l eventLog) request(what string, at float64, r *request.Request) {
	l.cr.logf("event %s at=%x req=%d", what, math.Float64bits(at), r.ID)
}

func (l eventLog) Admit(at float64, r *request.Request, _, _ int)      { l.request("admit", at, r) }
func (l eventLog) FirstToken(at float64, r *request.Request, _, _ int) { l.request("first", at, r) }
func (l eventLog) Evict(at float64, r *request.Request, _, _ int)      { l.request("evict", at, r) }
func (l eventLog) Drop(at float64, r *request.Request, _, _ int)       { l.request("drop", at, r) }
func (l eventLog) Fail(at float64, r *request.Request, _, _ int)       { l.request("fail", at, r) }
func (l eventLog) Finish(at float64, r *request.Request, _, _ int)     { l.request("finish", at, r) }

func (l eventLog) Iteration(at float64, _, _ int, kind string, dur float64, batch int, kvBytes int64, queueLen int) {
	l.cr.logf("event iteration at=%x %s dur=%x batch=%d kv=%d queue=%d",
		math.Float64bits(at), kind, math.Float64bits(dur), batch, kvBytes, queueLen)
}

func (l eventLog) CacheEvent(at float64, _, _ int, kind string, tokens int) {
	l.cr.logf("event cache at=%x %s %d", math.Float64bits(at), kind, tokens)
}

// countingScheduler counts the admission rounds the engine holds: the
// coasting engine must ask its scheduler exactly when the per-token one does.
// It also holds the engine to View.Epoch's promise: a round of the same
// Epoch as the one before sees the same batch in the same order, no member's
// Generated or KVLanded lower and none grown by more than the first's
// Generated. repeats counts those rounds. A blind one hides the Epoch from
// the scheduler (0 promises nothing), which must then decide the same.
type countingScheduler struct {
	core.Scheduler
	t       *testing.T
	calls   int
	blind   bool
	repeats int
	epoch   uint64
	batch   []*request.Request
	gen     []int // Generated of each member of batch at the last round
	landed  []int // and KVLanded
}

func (s *countingScheduler) Admit(v *core.View, queue []*request.Request) int {
	s.calls++
	if v.Epoch == 0 {
		s.t.Fatalf("round %d: the engine sent Epoch 0", s.calls)
	}
	if v.Epoch == s.epoch {
		s.repeats++
		s.keptPromise(v)
	}
	s.epoch = v.Epoch
	s.batch = append(s.batch[:0], v.Running...)
	s.gen, s.landed = s.gen[:0], s.landed[:0]
	for _, r := range v.Running {
		s.gen, s.landed = append(s.gen, r.Generated), append(s.landed, r.KVLanded())
	}
	if s.blind {
		v.Epoch = 0
	}
	return s.Scheduler.Admit(v, queue)
}

// keptPromise fails unless the batch of a round of the last round's Epoch
// only decoded since.
func (s *countingScheduler) keptPromise(v *core.View) {
	if len(v.Running) != len(s.batch) {
		s.t.Fatalf("round %d, Epoch %d: %d requests in the batch, %d at the last round", s.calls, v.Epoch, len(v.Running), len(s.batch))
	}
	adv := 0
	for i, r := range v.Running {
		if r != s.batch[i] {
			s.t.Fatalf("round %d, Epoch %d: member %d is request %d, was %d", s.calls, v.Epoch, i, r.ID, s.batch[i].ID)
		}
		g, l := r.Generated-s.gen[i], r.KVLanded()-s.landed[i]
		if i == 0 {
			adv = g
		}
		if g < 0 || l < 0 || g > adv || l > adv {
			s.t.Fatalf("round %d, Epoch %d: request %d grew %d tokens and %d landed, the first %d", s.calls, v.Epoch, r.ID, g, l, adv)
		}
	}
}

// newEngine builds the engine of one twin, its scheduler wrapped in a
// countingScheduler.
func (cr *coastRun) newEngine(cfg Config) {
	cr.sched = &countingScheduler{Scheduler: cfg.Scheduler, t: cr.t}
	cfg.Scheduler = cr.sched
	cfg.Perf = testPerf(cr.t)
	e, err := New(cfg)
	if err != nil {
		cr.t.Fatal(err)
	}
	e.SetRecorder(eventLog{cr: cr}, 0, 0)
	cr.e = e
}

func (cr *coastRun) logf(format string, args ...any) {
	cr.log = append(cr.log, fmt.Sprintf(format, args...))
}

func (cr *coastRun) submit(rs ...*request.Request) {
	cr.reqs = append(cr.reqs, rs...)
	cr.e.SubmitAll(rs)
}

// glance logs what an observer reads between two Steps without making the
// engine settle; it must already count the owed tokens (usedTokens is what
// coast and CoastEnd price the next decode step on).
func (cr *coastRun) glance() {
	e := cr.e
	cr.logf("clock=%x used=%d running=%d waiting=%d last=%d released=%v",
		math.Float64bits(e.Clock()), e.usedTokens(),
		e.RunningLen(), e.WaitingLen(), e.LastStep(), e.ReleasedLastStep())
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
	return fmt.Sprintf("%d:gen=%d,first=%x,last=%x,gap=%x,end=%x,evict=%d,adm=%d,%v",
		r.ID, r.Generated, math.Float64bits(r.FirstTokenAt), math.Float64bits(r.LastEmitAt),
		math.Float64bits(r.MaxGap), math.Float64bits(r.EndedAt),
		r.Evictions, r.Admissions, r.Outcome)
}

// steps takes up to n Steps, glancing after each and looking after those
// whose number (counted over the whole run) is a multiple of every — sparse
// enough that several tokens are owed at a time. It reports whether the
// engine still has work.
func (cr *coastRun) steps(n, every int) bool {
	for i := 0; i < n; i++ {
		e := cr.e
		round, coasted, prefills, fresh := e.roundDue(), e.res.CoastedSteps, e.res.PrefillIters, len(cr.fresh) > 0
		readmitted := false
		for _, r := range cr.fresh {
			readmitted = readmitted || r.Evictions > 0
		}
		if !e.Step() {
			return false
		}
		switch {
		case e.res.CoastedSteps > coasted:
			cr.refusedCoasts += b2i(round)
			cr.finishCoasts += b2i(e.released)
			cr.freshCoasts += b2i(fresh)
			cr.afterPrefills += b2i(fresh && cr.prefills > 1)
			cr.readmitted += b2i(readmitted)
			cr.prefills, cr.fresh = 0, cr.fresh[:0]
		case e.res.PrefillIters > prefills:
			cr.prefills++
			cr.fresh = append(cr.fresh, e.admitScratch...) // what this Step admitted
		default:
			cr.prefills, cr.fresh = 0, cr.fresh[:0]
		}
		cr.glance()
		if cr.e.res.DecodeSteps%every == 0 {
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
	cr.logf("result %+v finished=%d failed=%d timedout=%d admits=%d",
		sc, len(res.Finished), len(res.Failed), len(res.TimedOut), cr.sched.calls)
	for _, r := range cr.reqs {
		cr.logf("final %s", stamp(r))
	}
	cr.look()
	return res
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// stepUntil takes Steps until cond holds after one, and fails the case if
// it never does within n Steps.
func (cr *coastRun) stepUntil(what string, n int, cond func(e *Engine) bool) {
	for i := 0; i < n; i++ {
		if !cr.steps(1, 1000) {
			break
		}
		if cond(cr.e) {
			return
		}
	}
	cr.t.Fatalf("seed %d: no Step left the engine %s", cr.seed, what)
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
	// refused: some Step that held an admission round must have coasted.
	refused bool
	// crossed, when set, checks that the coasting engine took the coasted
	// steps the case is there for (coastRun's boundary counts).
	crossed func(cr *coastRun) bool
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

// A pool at the memory knee behind a standing queue: kneeRequests requests
// with long outputs arrive within a few seconds on a pool that holds a
// fraction of them, so most rounds refuse the queue's head while the batch
// decodes on. With a timeout, queued requests are dropped while it does.
const kneeRequests = 70

func kneeConfig(sched core.Scheduler, seed uint64, timeout float64) Config {
	return Config{Scheduler: sched, CapacityOverride: 7000, QueueTimeout: timeout, SeedHistory: seedHistory(seed, 500)}
}

func kneeStream(seed uint64) []*request.Request { return stream(seed, kneeRequests, 0.05, 150, 500) }

func kneeCase(name string, sched func(seed uint64) core.Scheduler, timeout float64) coastCase {
	return coastCase{
		name: "knee/" + name,
		cfg:  func(cr *coastRun) Config { return kneeConfig(sched(cr.seed), cr.seed, timeout) },
		drive: func(cr *coastRun) *Result {
			cr.submit(kneeStream(cr.seed)...)
			return cr.finish()
		},
		want: func(res *Result) bool {
			if timeout > 0 {
				return len(res.TimedOut) > 0 && len(res.Finished)+len(res.TimedOut) == kneeRequests
			}
			return len(res.Finished) == kneeRequests
		},
		refused: true,
	}
}

// kneeSampling is a Past-Future scheduler in sampling mode for kneeCase.
func kneeSampling(pf core.PastFutureConfig) func(seed uint64) core.Scheduler {
	return func(seed uint64) core.Scheduler {
		pf.Reserved, pf.Rng = 0.05, rng.New(seed)
		return core.MustNewPastFuture(pf)
	}
}

var coastCases = []coastCase{
	kneeCase("past-future-sampling", kneeSampling(core.PastFutureConfig{}), 0),
	// Every round redraws each length Samples times: SmallBatch above any
	// batch plus queue this pool holds.
	kneeCase("past-future-multi-sample", kneeSampling(core.PastFutureConfig{SmallBatch: 1000}), 0),
	kneeCase("past-future-no-resample", kneeSampling(core.PastFutureConfig{NoResample: true}), 0),
	kneeCase("oracle", func(uint64) core.Scheduler { return core.NewOracle() }, 0),
	kneeCase("aggressive-full-pool", func(uint64) core.Scheduler { return core.MustNewAggressive(1.0) }, 0),
	kneeCase("past-future-queue-timeout", kneeSampling(core.PastFutureConfig{}), 3),
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
		cfg: func(*coastRun) Config {
			return Config{Scheduler: core.MustNewConservative(1.0), CapacityOverride: 20_000}
		},
		drive: func(cr *coastRun) *Result {
			n := 0
			cr.e.AddIterationHook(func(now float64, it Iteration) {
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
			})
			cr.submit(stream(cr.seed, 30, 0.2, 100, 200)...)
			return cr.finish()
		},
		want: func(res *Result) bool { return len(res.Finished) == 30 },
	},
	{
		// Outputs spread from a few tokens to a few hundred over a roomy
		// pool: requests finish on coasted steps, one or several at a time,
		// and arrivals join between them.
		name: "staggered-finishes",
		cfg: func(*coastRun) Config {
			return Config{Scheduler: core.MustNewConservative(1.0), CapacityOverride: 40_000}
		},
		drive: func(cr *coastRun) *Result {
			reqs := stream(cr.seed, 40, 0.4, 120, 400)
			for i, r := range reqs {
				if i%4 == 0 {
					r.TrueOutputLen = 1 + i%3 // the first decode token is the last
				}
			}
			cr.submit(reqs...)
			return cr.finish()
		},
		want:    func(res *Result) bool { return len(res.Finished) == 40 },
		crossed: func(cr *coastRun) bool { return cr.finishCoasts > 5 && cr.freshCoasts > 5 },
	},
	{
		// A prefill budget below two prompts: a burst is admitted one
		// prefill at a time, and the first decode step after the last one
		// gives every newcomer its first token.
		name: "prefills-in-a-row",
		cfg: func(*coastRun) Config {
			return Config{Scheduler: core.MustNewConservative(1.0), CapacityOverride: 40_000, MaxPrefillTokens: 300}
		},
		drive: func(cr *coastRun) *Result {
			var reqs []*request.Request
			for i, r := range stream(cr.seed, 36, 0.05, 100, 300) {
				r.InputLen = 150 + i%7
				r.ArrivalTime = float64(i/6) * 1.5 // six at a time
				reqs = append(reqs, r)
			}
			cr.submit(reqs...)
			return cr.finish()
		},
		want:    func(res *Result) bool { return len(res.Finished) == 36 && res.PrefillIters >= 36 },
		crossed: func(cr *coastRun) bool { return cr.afterPrefills > 0 },
	},
	evictReadmitCase(Recompute),
	evictReadmitCase(Swap),
	{
		// The clock is moved, and later the engine crashes, each three
		// coasted steps after a prefill that joined a batch: the first of
		// them stamped every request, and three tokens are owed.
		name: "sync-and-crash-mid-run",
		cfg: func(*coastRun) Config {
			return Config{Scheduler: core.MustNewConservative(1.0), CapacityOverride: 20_000}
		},
		drive: func(cr *coastRun) *Result {
			reqs := stream(cr.seed, 30, 1, 100, 300)
			for i, r := range reqs {
				r.ArrivalTime = float64(max(i-9, 0)) // ten at once, then one a second
			}
			cr.submit(reqs...)
			cut := func(what string) {
				// Three decode steps after a prefill that joined a batch.
				cr.stepUntil("just prefilled beside older requests", 2000, func(e *Engine) bool {
					return len(cr.fresh) > 0 && len(cr.fresh) < len(e.running)
				})
				cr.steps(3, 1000)
				if e := cr.e; len(e.hooks.token) == 0 && (e.prefilled || e.owed != 3) {
					cr.t.Fatalf("seed %d: %s with the batch stamped %v and %d tokens owed; want it stamped and 3",
						cr.seed, what, !e.prefilled, e.owed)
				}
			}
			cut("SyncClock")
			cr.e.SyncClock(cr.e.Clock() + 0.3)
			cr.look()
			cut("Crash")
			orphans := cr.e.Crash()
			for _, r := range orphans {
				cr.logf("orphan %s", stamp(r))
			}
			cr.look()
			cr.e.SyncClock(cr.e.Clock() + 1)
			for _, r := range orphans {
				r.ResetForRetry()
				cr.e.SubmitAt(r, cr.e.Clock())
			}
			return cr.finish()
		},
		want: func(res *Result) bool { return len(res.Finished) == 30 },
	},
}

// evictReadmitCase is a pool that a batch outgrows under Aggressive:
// requests are evicted, re-admitted and take their next token on a coasted
// step, once recomputed and once swapped back in.
func evictReadmitCase(policy EvictionPolicy) coastCase {
	return coastCase{
		name: "evict-readmit/" + policy.String(),
		cfg: func(*coastRun) Config {
			return Config{Scheduler: core.MustNewAggressive(0.9), CapacityOverride: 2400, Eviction: policy}
		},
		drive: func(cr *coastRun) *Result {
			cr.submit(stream(cr.seed, 40, 0.02, 100, 400)...)
			return cr.finish()
		},
		want: func(res *Result) bool {
			return len(res.Finished) == 40 && res.Evictions > 0 && (policy == Swap) == (res.SwapInTokens > 0)
		},
		crossed: func(cr *coastRun) bool { return cr.readmitted > 0 },
	}
}

// TestCoastMatchesPerTokenPath pins the O(1) decode step against the step it
// replaces: every case runs twice, and an observer must not be able to tell
// which engine walked its batch on every step — not between Steps, not in the
// Result, not on any request, not in how often the scheduler was asked. A
// case that never coasted fails: it compared the per-token path with itself;
// so does a knee case none of whose refused rounds coasted. Each knee case
// runs a third time with the Epoch hidden from its scheduler, which then
// prices every round in full, and must be told from the first run no better;
// the knee cases together must hold rounds that repeat an Epoch.
func TestCoastMatchesPerTokenPath(t *testing.T) {
	repeats := 0
	for _, tc := range coastCases {
		for _, seed := range coastSeeds(t) {
			run := func(perToken, blind bool) (*coastRun, *Result) {
				cr := &coastRun{t: t, seed: seed}
				cr.newEngine(tc.cfg(cr))
				cr.sched.blind = blind
				if perToken {
					cr.e.AddTokenHook(func(float64, *request.Request) {})
				}
				return cr, tc.drive(cr)
			}
			ref, refRes := run(true, false)
			got, gotRes := run(false, false)
			if tc.refused {
				blind, blindRes := run(false, true)
				if blind.sched.calls != got.sched.calls {
					t.Fatalf("%s seed %d: %d admission rounds, %d with the Epoch hidden", tc.name, seed, got.sched.calls, blind.sched.calls)
				}
				if blindRes.CoastedSteps != gotRes.CoastedSteps {
					t.Fatalf("%s seed %d: %d coasted steps, %d with the Epoch hidden", tc.name, seed, gotRes.CoastedSteps, blindRes.CoastedSteps)
				}
				sameLog(t, fmt.Sprintf("%s seed %d (Epoch hidden)", tc.name, seed), blind.log, got.log)
				repeats += got.sched.repeats
			}
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
			if tc.crossed != nil && !tc.crossed(got) {
				t.Fatalf("%s seed %d: coasted %d steps: %d finishing, %d first tokens, %d after prefills in a row, %d re-admitted; the scenario exercises nothing",
					tc.name, seed, gotRes.CoastedSteps, got.finishCoasts, got.freshCoasts, got.afterPrefills, got.readmitted)
			}
			if tc.refused && got.refusedCoasts == 0 {
				t.Fatalf("%s seed %d: no step that held an admission round coasted (%d of %d decode steps coasted)",
					tc.name, seed, gotRes.CoastedSteps, gotRes.DecodeSteps)
			}
			if got.sched.calls != ref.sched.calls {
				t.Fatalf("%s seed %d: %d admission rounds, per-token path %d", tc.name, seed, got.sched.calls, ref.sched.calls)
			}
			sameLog(t, fmt.Sprintf("%s seed %d", tc.name, seed), got.log, ref.log)
		}
	}
	if repeats == 0 {
		t.Fatal("no knee round repeated its predecessor's Epoch: the certificate is never offered")
	}
}

// TestCoastRunIsPredicted pins the two calls a caller that schedules runs of
// coasted steps relies on. Driven Step by Step and left alone, an engine's
// CoastEnd after every Step is the clock the first following Step that holds
// an admission round, releases a request or does not coast starts at: a step
// holding a round ends a run even when the round admits nothing and the step
// coasts, and so does a coasted step on which a request finishes. And driven
// the cluster's way — CoastUntil to a point inside each run, to the start of
// a step there (taken only when inclusive), to the run's end (where an
// inclusive catch-up takes no step if a round is due there), then one Step —
// it ends exactly where the Step-by-Step engine does: every request and the
// Result, floats bit for bit.
func TestCoastRunIsPredicted(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(seed uint64) Config
		reqs func(seed uint64) []*request.Request
	}{
		{"past-future-arrivals", func(seed uint64) Config {
			return Config{Scheduler: core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(seed)}),
				CapacityOverride: 9000, SeedHistory: seedHistory(seed, 300)}
		}, func(seed uint64) []*request.Request { return stream(seed, 60, 0.25, 200, 300) }},
		{"knee", func(seed uint64) Config {
			return kneeConfig(kneeSampling(core.PastFutureConfig{})(seed), seed, 0)
		}, kneeStream},
		{"memory-edge", func(uint64) Config {
			return Config{Scheduler: core.MustNewAggressive(1.0), CapacityOverride: 1200}
		}, func(uint64) []*request.Request {
			var rs []*request.Request
			for i := 0; i < 24; i++ {
				rs = append(rs, request.New(int64(i+1), 20+7*(i%5), 30+11*(i%7), 128, 0))
			}
			return rs
		}},
	}
	refusedCoasts := 0 // Steps that held a round and coasted, over every case
	finishing := 0     // coasted Steps on which a request finished
	for _, tc := range cases {
		for _, seed := range coastSeeds(t) {
			for _, slow := range []float64{1, 3} {
				label := fmt.Sprintf("%s seed %d slow %v", tc.name, seed, slow)
				build := func() (*Engine, []*request.Request) {
					cfg := tc.cfg(seed)
					cfg.Perf = testPerf(t)
					e := MustNew(cfg)
					e.SetSlowFactor(slow)
					rs := tc.reqs(seed)
					e.SubmitAll(rs)
					return e, rs
				}

				ref, refReqs := build()
				var starts []float64 // the clock each Step started at
				var ends []bool      // whether the Step held a round, released or did not coast
				var preds []float64  // CoastEnd before each Step
				refused := 0         // Steps that held a round and coasted
				for {
					starts, preds = append(starts, ref.Clock()), append(preds, ref.CoastEnd())
					round, before := ref.roundDue(), ref.res.CoastedSteps
					if !ref.Step() {
						break
					}
					coasted := ref.res.CoastedSteps > before
					ends = append(ends, round || !coasted || ref.ReleasedLastStep())
					if round && coasted {
						refused++
					}
					if coasted && ref.ReleasedLastStep() {
						finishing++
					}
				}
				refusedCoasts += refused
				runs := 0
				for i, pred := range preds[:len(ends)] {
					j := i
					for j < len(ends) && !ends[j] {
						j++
					}
					if pred != starts[j] {
						t.Fatalf("%s: before step %d CoastEnd said %v; the first step that held a round, released or did not coast started at %v",
							label, i, pred, starts[j])
					}
					if j > i {
						runs++
					}
				}
				if runs == 0 {
					t.Fatalf("%s: nothing coasted", label)
				}

				got, gotReqs := build()
				inclusiveTaken, dueChecked := 0, 0
				for !got.Idle() {
					if end := got.CoastEnd(); end > got.Clock() {
						got.CoastUntil(got.Clock()+(end-got.Clock())/3, false)
						if c := got.Clock(); c < end {
							if n := got.CoastUntil(c, false); n != 0 {
								t.Fatalf("%s: a strict catch-up to the clock took %d steps", label, n)
							}
							if n := got.CoastUntil(c, true); n != 1 {
								t.Fatalf("%s: an inclusive catch-up to the clock took %d steps, want the one starting there", label, n)
							}
							inclusiveTaken++
						}
						got.CoastUntil(end, false)
						if got.Clock() != end {
							t.Fatalf("%s: caught up to %v, the run was priced to end at %v", label, got.Clock(), end)
						}
					}
					if got.roundDue() {
						// The round is the Step's: a catch-up to this very
						// clock must leave it alone.
						if n := got.CoastUntil(got.Clock(), true); n != 0 {
							t.Fatalf("%s: an inclusive catch-up to a due round took %d steps", label, n)
						}
						dueChecked++
					}
					got.Step()
				}
				if inclusiveTaken == 0 || dueChecked == 0 {
					t.Fatalf("%s: %d runs long enough to cut inside, %d due rounds caught up to", label, inclusiveTaken, dueChecked)
				}
				scalars := func(e *Engine) string {
					res := *e.Snapshot()
					res.Finished, res.Failed, res.TimedOut, res.HandedOff = nil, nil, nil, nil
					return fmt.Sprintf("%+v", res)
				}
				if g, r := scalars(got), scalars(ref); g != r {
					t.Fatalf("%s: results differ\n run-driven: %s\nstep-driven: %s", label, g, r)
				}
				for i := range refReqs {
					if g, r := stamp(gotReqs[i]), stamp(refReqs[i]); g != r {
						t.Fatalf("%s: request %d run-driven %s, step-driven %s", label, i, g, r)
					}
				}
			}
		}
	}
	if refusedCoasts == 0 {
		t.Fatal("no step holding an admission round coasted: no run ended at a refused round")
	}
	if finishing == 0 {
		t.Fatal("no step on which a request finished coasted: no run ended at a coasted finish")
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
	opSync             // SyncClock((1+p1%4)·0.05 s from now)
	numOps
)

// fuzzConfig picks the scheduler, a queue timeout, swap recovery and a
// prefill budget below most pairs of prompts from the first byte; the pool is
// small enough that a few requests reach its edge.
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
	if b&8 != 0 {
		cfg.Eviction = Swap
	}
	if b&16 != 0 {
		cfg.MaxPrefillTokens = 64
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
	cr.newEngine(fuzzConfig(data[0]))
	e := cr.e
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
		case opSync:
			e.SyncClock(e.Clock() + float64(1+p1%4)*0.05)
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
// steps — arrivals, reads, a crash, a slowdown, a token hook, a deadline, a
// clock jump — on a pool small enough to reach its edge, and requires the
// coasting engine and its per-token twin to agree after every operation, and
// their recorders to hear the same events at the same times.
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
	// Ten requests with outputs spread over 2–61 tokens, arriving over 0.15 s:
	// finishes, first tokens after one prefill or several, evictions and
	// re-admissions land on coasted steps, with a clock jump and a crash
	// inside runs — under each scheduler, with swap recovery and with a
	// prefill budget that admits a prompt or two at a time.
	var staggered []byte
	for i := byte(0); i < 10; i++ {
		staggered = append(staggered, opSubmit, 17+11*i, 6*i+(i%4)<<6)
	}
	for _, cfg := range []byte{0, 1, 2, 8, 9, 10, 16, 17, 18, 26} {
		seq := append([]byte{cfg}, staggered...)
		seq = append(seq, opStep, 7, 0, opRead, 0, 0, opStep, 31, 0, opSync, 2, 0, opStep, 9, 0,
			opCrash, 0, 0, opStep, 31, 0, opRead, 0, 0)
		f.Add(seq)
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

// TestMisowedPanics checks that owed tokens never land silently past a
// request's output: a settle or a hand-out that would take a running request
// there panics, as does a settle of a request whose first token was never
// stamped.
func TestMisowedPanics(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(r *request.Request)
		land    func(e *Engine)
	}{
		{"settle past output", func(r *request.Request) { r.TrueOutputLen = r.Generated + 1 }, (*Engine).settle},
		{"hand-out to the last token", func(r *request.Request) { r.TrueOutputLen = r.Generated + 2 }, (*Engine).handOut},
		{"settle unstamped", func(r *request.Request) { r.FirstTokenAt = -1 }, (*Engine).settle},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, core.NewOracle(), 10_000)
			e.SubmitAll(mkReqs(2, 40, 100, 128))
			for e.owed < 2 {
				if !e.Step() {
					t.Fatal("engine drained before owing two tokens")
				}
			}
			tc.corrupt(e.running[1])
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "handed") {
					t.Fatalf("%s with %d tokens owed: got %q, want misowed's panic", tc.name, e.owed, msg)
				}
			}()
			tc.land(e)
		})
	}
}
