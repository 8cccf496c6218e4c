package engine

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/minheap"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/stats"
)

// Role selects which serving phase the engine executes — the disaggregated
// prefill/decode split (Dynamo, DistServe, Splitwise) at the engine level.
type Role int

const (
	// RoleMixed runs both phases on one engine: monolithic serving, the
	// default and the paper's setting.
	RoleMixed Role = iota
	// RolePrefillOnly runs prompts only: a request completes at its first
	// token (computed by the prefill pass), frees its KV allocation, and is
	// handed off to a decode engine through AddExitHook (still pending) —
	// unless the first token is also its last, in which case it finishes
	// here.
	RolePrefillOnly
	// RoleDecodeOnly runs decode only: it accepts requests migrated from a
	// prefill engine via SubmitMigrated, whose KV footprint (prompt + the
	// prefill token) is re-allocated without prefill compute on first
	// admission — the transfer itself is the cluster link's business.
	RoleDecodeOnly
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleMixed:
		return "mixed"
	case RolePrefillOnly:
		return "prefill-only"
	case RoleDecodeOnly:
		return "decode-only"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// EvictionPolicy selects how evicted requests recover their KV state
// (§2.4 mentions both: "recomputation or swapping").
type EvictionPolicy int

const (
	// Recompute re-encodes the prompt plus previously generated tokens in a
	// fresh prefill on re-admission (vLLM's default preemption mode).
	Recompute EvictionPolicy = iota
	// Swap moves the KV cache to host memory on eviction and back across
	// the PCIe link on re-admission — no recomputation, but the swap-in
	// transfer stalls the admitting iteration.
	Swap
)

// String implements fmt.Stringer.
func (p EvictionPolicy) String() string {
	switch p {
	case Recompute:
		return "recompute"
	case Swap:
		return "swap"
	default:
		return fmt.Sprintf("eviction(%d)", int(p))
	}
}

// hooks are the engine's observers, attached through the Add*Hook methods
// and called in the order they were attached.
type hooks struct {
	// admit hears of every round that admitted something, before the
	// prompts' prefill runs. The round's slices and View are per-step
	// scratch the engine reuses: read them during the callback, copy what
	// must outlive the Step.
	admit []func(now float64, round core.AdmitRound)
	// token hears of every emitted token (the streaming server).
	token []func(now float64, r *request.Request)
	// exit hears of every request leaving the engine, after its Outcome and
	// EndedAt are set: completed, dropped (QueueTimeout) or failed
	// (unservable) — or handed off by a prefill-only engine, whose outcome
	// is still pending, with its KV freed and PrefillDoneAt set.
	exit []func(now float64, r *request.Request)
	// iteration hears of every engine iteration.
	iteration []func(now float64, it Iteration)
}

// Iteration describes one executed engine iteration for observers.
type Iteration struct {
	Kind     string // "prefill", "decode", "chunked", "static"
	Duration float64
	// BatchSize is the number of requests in the iteration: prompts on
	// "prefill", decode lanes on "decode" and "static", decode lanes plus
	// the prompts that advanced a chunk on "chunked".
	BatchSize int
	KVTokens  int
}

// Config configures an engine.
type Config struct {
	// Perf is the latency/capacity model of the deployment. Required.
	Perf *perf.Model
	// Scheduler makes admission decisions. Required unless StaticBatchSize
	// is positive.
	Scheduler core.Scheduler
	// BlockSize is the KV allocation granularity (1 = LightLLM token
	// granularity, 16 = vLLM paging). 0 selects 1.
	BlockSize int
	// HistoryWindow is the size of the finished-output-length window fed to
	// the scheduler. 0 selects 1000 (the paper's setting).
	HistoryWindow int
	// Role selects monolithic (RoleMixed, default) or disaggregated
	// prefill-only/decode-only operation. Non-mixed roles require
	// continuous batching.
	Role Role
	// MaxPrefillTokens caps the prompt tokens fused into one prefill
	// iteration (real frameworks' max batched-token knob): a smaller cap
	// bounds how long decode stalls behind admissions, trading TTFT for
	// MTPOT. At least one request is always prefilled so oversized prompts
	// still make progress. Under chunked prefill it is the prompt-token
	// budget of each chunked iteration instead. 0 = unlimited.
	MaxPrefillTokens int
	// StaticBatchSize, when positive, disables continuous batching: batches
	// of this many requests run to completion with padding, emulating the
	// original (pre-serving-framework) multimodal implementations in
	// Table 2. 0 selects continuous batching.
	StaticBatchSize int
	// CapacityOverride replaces the perf model's KV capacity (tokens) for
	// toy scenarios and tests. 0 keeps the model's capacity.
	CapacityOverride int
	// Eviction selects recompute (default) or swap recovery for evicted
	// requests.
	Eviction EvictionPolicy
	// QueueTimeout, when positive, models SLA-aware clients: a request that
	// has waited in the queue longer than this without receiving any token
	// is abandoned (it never held KV memory, so abandonment is free). The
	// goodput experiments set this to the SLA's TTFT budget; abandoned
	// requests count as SLA violations. Requests that already streamed
	// tokens (eviction re-queues) are never abandoned — their stall shows
	// up as MTPOT instead.
	QueueTimeout float64
	// SeedHistory pre-populates the output-length history window, modelling
	// a warm server that has been serving this workload (the paper notes
	// cold start resolves "in a few minutes"; warm starts skip it).
	SeedHistory []int
	// PrefixCache configures prompt prefix caching. The zero value disables
	// it, keeping the engine bit-identical to the cache-less code path.
	PrefixCache PrefixCacheConfig
	// Chunked configures chunked prefill. The zero value disables it,
	// keeping the engine bit-identical to the fused-prefill code path.
	Chunked ChunkConfig
}

// ChunkPolicy selects how the chunked-prefill scheduler sizes each chunk.
type ChunkPolicy int

const (
	// ChunkGreedyFixed carves every chunk at ChunkTokens — the classic
	// Sarathi/DeepSpeed-FastGen fixed-chunk policy, kept as the reference
	// the SLO-aware sizer is decision-equivalence-checked against.
	ChunkGreedyFixed ChunkPolicy = iota
	// ChunkSLOAware sizes each chunk from the TTFT slack of the tightest-
	// deadline request waiting behind it: plentiful slack grows the chunk
	// toward maxChunkTokens (fewer per-chunk overheads), a tight deadline
	// behind a long prompt shrinks it toward minChunkTokens so the waiter
	// reaches the batch sooner.
	ChunkSLOAware
)

// String implements fmt.Stringer.
func (p ChunkPolicy) String() string {
	switch p {
	case ChunkGreedyFixed:
		return "greedy-fixed"
	case ChunkSLOAware:
		return "slo-aware"
	default:
		return fmt.Sprintf("chunk-policy(%d)", int(p))
	}
}

// ChunkConfig enables chunked prefill: long prompts land chunk by chunk,
// interleaved with decode steps for the running batch, so a 32k-token prompt
// no longer head-of-line-blocks every short request behind it. The zero value
// disables chunking and reproduces the fused-prefill engine bit-identically.
type ChunkConfig struct {
	// Enabled switches chunked prefill on. Requires continuous batching.
	Enabled bool
	// Policy selects the chunk sizer (greedy fixed or SLO-aware).
	Policy ChunkPolicy
	// ChunkTokens is the greedy policy's fixed chunk size and the one
	// ChunkOverheadCurve prices. 0 selects 512.
	ChunkTokens int
}

// PrefixCacheConfig enables KV prefix caching on the engine's pool:
// requests carrying prefix hashes share resident prompt blocks and pay
// prefill only for the uncached suffix. Cold evicted blocks optionally
// spill to a host offload store; a cache restore streams back over the
// host link when the wire is cheaper than recomputing the tokens.
type PrefixCacheConfig struct {
	// Enabled switches prefix caching on.
	Enabled bool
	// BlockTokens is the prefix-block granularity in tokens. 0 selects 64.
	// Must be a multiple of the engine's BlockSize.
	BlockTokens int
	// OffloadCapacityTokens bounds the host offload store evicted prefixes
	// spill into: 0 disables the offload tier, negative means unbounded.
	OffloadCapacityTokens int
}

// Engine is the continuous-batching serving engine. Not safe for concurrent
// use; the HTTP server serializes access.
//
// Between Steps a running request's Generated, LastEmitAt, MaxGap and KV size
// may trail the engine by the tokens coasted decode steps owe it (owed, see
// the package comment): every method that hands out a running request or the
// pool calls settle first. Inside the package, e.running's requests and
// e.pool's usage are exact only after settle; code that runs with tokens owed
// (coast, CoastEnd, observe, iterationHook) reads usage through usedTokens.
//
// Each fact has one home: the request lists and counters live in res, the
// Result that Snapshot copies; a prompt's chunk cursor lives on the request
// (PrefillDone, PrefillRemaining); a request holding a batch slot is in
// running (a static batch's lanes too) or prefilling; the wait queue holds
// requests and nothing derived from them.
type Engine struct {
	cfg      Config
	pool     *kv.Pool
	history  *dist.Window
	sched    core.Scheduler
	refuser  core.RepeatRefuser // sched's RefusesAgain, nil when it has none
	hooks    hooks
	clock    float64
	arrivals minheap.Heap[arrivalItem]
	seq      int64

	queue      reqDeque           // FCFS wait queue; evictions push front
	running    []*request.Request // decoding batch (static: the batch in flight), admission order
	prefilling []*request.Request // chunked prefill: prompts being chunked

	// chunkPending is the total prompt tokens reserved but not yet landed
	// across e.prefilling under chunked prefill — the gap between the KV
	// pool's UsedTokens (full reservations) and the KV that physically
	// exists, which iteration pricing must not charge for. Always 0 when
	// chunking is disabled.
	chunkPending int

	// Per-step scratch buffers, reused so a steady-state Step performs no
	// heap allocations. Valid only within one Step call.
	queueScratch []*request.Request // queue snapshot handed to the scheduler
	batchScratch []*request.Request // running ∪ prefilling view
	admitScratch []*request.Request // admissions of the current step, then its finishers (sweepDone)
	viewScratch  core.View          // the scheduler's read-only state

	// Chunked-prefill per-step scratch (see chunk.go).
	finishScratch    []*request.Request // prompts whose last chunk landed
	chunkEmitScratch []chunkEmit        // deferred recorder emissions
	chunkSuffix      []float64          // suffix-min pipeline deadlines

	// res holds the request lists and counters; Snapshot fills in the
	// fields derived at snapshot time (name, duration, pool figures, means).
	res Result
	// lastCacheEvict watermarks the pool's cumulative eviction counter for
	// per-iteration CacheEvent emission.
	lastCacheEvict int64
	pendingSwapIn  float64 // swap-in seconds owed by the next iteration
	memUtil        stats.TimeWeighted
	physUtil       stats.TimeWeighted
	batchSize      stats.TimeWeighted
	started        bool
	startClock     float64
	released       bool     // a request left the engine during the last Step
	lastStep       StepKind // what the last Step moved, for LastStep
	// epoch is the View.Epoch of the next admission round: it moves on
	// before every Step that follows one which was not a pure decode step
	// (coasted steps are), and on Crash.
	epoch uint64

	// Coasted decode steps (see the package comment and coast). owed tokens
	// are counted for every running request — in clock, outputTokens and the
	// occupancy series — but not yet grown into the pool; the first handed of
	// them are in the requests' Generated too (handOut, before an admission
	// round), the rest not yet, and none in their timing. owedGap is the
	// largest clock advance among the owed steps, each request's largest
	// inter-token gap over them. prefilled is set from a fused prefill to the
	// next decode step: the batch holds requests without their first decode
	// token, and the first coasted step stamps every request (stampAll).
	// minLeft is the fewest tokens any running request had left to emit when
	// the batch was last settled; it is positive only after a runDecode, a
	// runPrefill or a coasted step that left requests running, the states a
	// run of coasted steps can start from. decided is the admission a
	// coasting attempt's round settled on (refuse), taken by this Step's
	// admit; 0 when none is pending.
	owed      int
	handed    int
	owedGap   float64
	prefilled bool
	minLeft   int
	decided   int

	// rec is the optional lifecycle recorder; obsPool/obsRep identify this
	// engine in the cluster when emitting. nil disables every emission site
	// (the guards keep the hot path allocation-free and bit-identical).
	rec     obs.Recorder
	obsPool int
	obsRep  int

	// slow is the transient service-time multiplier for fault-injected
	// degradation (thermal throttling, noisy neighbors): every iteration
	// duration is scaled by it. 1 = healthy; the cluster's fault layer sets
	// and clears it. Kept exactly 1 when no fault is active so healthy runs
	// are bit-identical to the pre-fault engine.
	slow float64
}

// maxHistoryWindow bounds HistoryWindow: the window holds its samples twice
// (ring and sorted CDF) from the start, so a size far past any workload's
// would only exhaust memory.
const maxHistoryWindow = 1 << 20

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Perf == nil {
		return nil, fmt.Errorf("engine: perf model is required")
	}
	static := cfg.StaticBatchSize > 0
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 1
	}
	if cfg.HistoryWindow == 0 {
		cfg.HistoryWindow = 1000
	}
	capacity := cfg.Perf.CapacityTokens()
	if cfg.CapacityOverride > 0 {
		capacity = cfg.CapacityOverride
	}
	// Range checks are "inside" tests so that NaN fails them too.
	switch {
	case cfg.BlockSize < 0:
		return nil, fmt.Errorf("engine: negative block size %d", cfg.BlockSize)
	case capacity < cfg.BlockSize:
		return nil, fmt.Errorf("engine: KV capacity %d tokens below one block of %d", capacity, cfg.BlockSize)
	case cfg.HistoryWindow < 0 || cfg.HistoryWindow > maxHistoryWindow:
		return nil, fmt.Errorf("engine: history window %d outside [1,%d]", cfg.HistoryWindow, maxHistoryWindow)
	case cfg.StaticBatchSize < 0 || cfg.MaxPrefillTokens < 0 || cfg.CapacityOverride < 0:
		return nil, fmt.Errorf("engine: negative static batch %d, prefill budget %d or capacity %d",
			cfg.StaticBatchSize, cfg.MaxPrefillTokens, cfg.CapacityOverride)
	case cfg.Scheduler == nil && !static:
		return nil, fmt.Errorf("engine: scheduler is required")
	case !(cfg.QueueTimeout >= 0):
		return nil, fmt.Errorf("engine: queue timeout %v outside [0,+Inf]", cfg.QueueTimeout)
	case cfg.Role < RoleMixed || cfg.Role > RoleDecodeOnly:
		return nil, fmt.Errorf("engine: unknown %v", cfg.Role)
	case cfg.Eviction < Recompute || cfg.Eviction > Swap:
		return nil, fmt.Errorf("engine: unknown %v", cfg.Eviction)
	case cfg.Chunked.Policy < ChunkGreedyFixed || cfg.Chunked.Policy > ChunkSLOAware:
		return nil, fmt.Errorf("engine: unknown %v", cfg.Chunked.Policy)
	case static && cfg.Role != RoleMixed:
		return nil, fmt.Errorf("engine: role %v requires continuous batching", cfg.Role)
	case static && cfg.Chunked.Enabled:
		return nil, fmt.Errorf("engine: chunked prefill requires continuous batching")
	}
	if cfg.Chunked.Enabled {
		if cfg.Chunked.ChunkTokens == 0 {
			cfg.Chunked.ChunkTokens = 512
		}
		if cfg.Chunked.ChunkTokens < 0 {
			return nil, fmt.Errorf("engine: negative chunk size %d", cfg.Chunked.ChunkTokens)
		}
	}
	if cfg.PrefixCache.Enabled {
		if cfg.PrefixCache.BlockTokens == 0 {
			cfg.PrefixCache.BlockTokens = 64
		}
		if cfg.PrefixCache.BlockTokens < 0 || cfg.PrefixCache.BlockTokens%cfg.BlockSize != 0 {
			return nil, fmt.Errorf("engine: prefix-cache block tokens %d must be a positive multiple of block size %d",
				cfg.PrefixCache.BlockTokens, cfg.BlockSize)
		}
	}
	e := &Engine{
		cfg:      cfg,
		pool:     kv.NewPool(capacity, cfg.BlockSize),
		history:  dist.NewWindow(cfg.HistoryWindow),
		sched:    cfg.Scheduler,
		arrivals: minheap.New(arrivalBefore),
		slow:     1,
		epoch:    1,
	}
	e.refuser, _ = cfg.Scheduler.(core.RepeatRefuser)
	if cfg.PrefixCache.Enabled {
		e.pool.EnablePrefixCache(kv.PrefixConfig{
			BlockTokens:           cfg.PrefixCache.BlockTokens,
			OffloadCapacityTokens: cfg.PrefixCache.OffloadCapacityTokens,
		})
	}
	for _, l := range cfg.SeedHistory {
		e.history.Add(l)
	}
	return e, nil
}

// MustNew is New for statically valid configurations.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Clock returns the current simulated time in seconds.
func (e *Engine) Clock() float64 { return e.clock }

// Pool exposes the KV pool for observation (tests, server status page). Like
// a running request, read it through the engine each time: a pointer kept
// across Steps may trail the engine by the owed tokens.
func (e *Engine) Pool() *kv.Pool {
	e.settle()
	return e.pool
}

// History exposes the finished-output-length window.
func (e *Engine) History() *dist.Window { return e.history }

// Perf exposes the latency/capacity model (the cluster SLA planner
// interpolates TTFT/TPOT from it when sizing the fleet).
func (e *Engine) Perf() *perf.Model { return e.cfg.Perf }

// Role returns the engine's serving role (mixed, prefill-only, decode-only).
func (e *Engine) Role() Role { return e.cfg.Role }

// PrefixCacheEnabled reports whether the engine caches prompt prefixes —
// the cluster's routing affinity and admission-floor discount key off it.
func (e *Engine) PrefixCacheEnabled() bool { return e.pool.PrefixCacheEnabled() }

// ChunkOverheadCurve returns the extra prefill seconds chunking costs a
// prompt of the given length on this engine (chunk count at the configured
// chunk size × the perf model's per-chunk overhead), or nil when chunking
// is disabled — so cluster-side floors and throughput curves price chunked
// replicas honestly and leave unchunked fleets bit-identical.
func (e *Engine) ChunkOverheadCurve() func(promptTokens float64) float64 {
	if !e.cfg.Chunked.Enabled {
		return nil
	}
	chunk := float64(e.cfg.Chunked.ChunkTokens)
	per := e.cfg.Perf.ChunkOverhead()
	return func(promptTokens float64) float64 {
		if promptTokens <= 0 {
			return 0
		}
		chunks := promptTokens / chunk
		n := int(chunks)
		if chunks > float64(n) {
			n++
		}
		return float64(n) * per
	}
}

// KVBytesPerToken returns the per-token KV-cache footprint of the served
// model on this engine — the unit the cluster layer sizes KV transfers in.
// Exposed per engine (not per fleet) so heterogeneous clusters size each
// migration by the replica that owns the cache.
func (e *Engine) KVBytesPerToken() int64 { return e.cfg.Perf.Spec().KVBytesPerToken() }

// CostWeight returns the normalized provisioning cost per replica-second of
// this engine's hardware (1.0 = one A100-80G), the flavor weight behind
// heterogeneous-fleet cost accounting.
func (e *Engine) CostWeight() float64 { return e.cfg.Perf.CostWeight() }

// QueueLen returns the length of the FCFS wait queue: requests a Step has
// already moved out of the arrival heap. A request submitted since the last
// Step is not in it yet — see WaitingLen.
func (e *Engine) QueueLen() int { return e.queue.Len() }

// WaitingLen returns how many requests wait on this engine without a batch
// slot: the FCFS queue plus everything submitted (Submit, SubmitAt,
// SubmitMigrated, SubmitAll) that no Step has queued yet. This — not
// QueueLen — is what an observer between two Steps must count (see the
// package comment): a submitted request will claim memory on this engine
// just like a queued one.
func (e *Engine) WaitingLen() int { return e.queue.Len() + e.arrivals.Len() }

// RunningRequests returns a copy of the running batch (including prompts
// mid-chunk and the static batch), for observers like the multi-replica
// router.
func (e *Engine) RunningRequests() []*request.Request {
	e.settle()
	out := make([]*request.Request, 0, len(e.running)+len(e.prefilling))
	out = append(out, e.running...)
	return append(out, e.prefilling...)
}

// WaitingRequests returns a copy of the waiting set (see WaitingLen): the
// wait queue in FCFS order, then the submitted-but-not-yet-queued requests
// in no particular order.
func (e *Engine) WaitingRequests() []*request.Request {
	out := e.queue.AppendTo(make([]*request.Request, 0, e.WaitingLen()))
	for _, it := range e.arrivals.Items() {
		out = append(out, it.r)
	}
	return out
}

// ForEachRunning calls f for every request in the running batch (including
// prompts mid-chunk and the static batch) without allocating —
// the cluster routing probes' view of the batch. The iteration order
// matches RunningRequests.
func (e *Engine) ForEachRunning(f func(*request.Request)) {
	e.settle()
	for _, r := range e.running {
		f(r)
	}
	for _, r := range e.prefilling {
		f(r)
	}
}

// ForEachWaiting calls f for every waiting request (see WaitingLen) without
// allocating, in WaitingRequests order.
func (e *Engine) ForEachWaiting(f func(*request.Request)) {
	e.queue.ForEach(f)
	for _, it := range e.arrivals.Items() {
		f(it.r)
	}
}

// RunningLen returns the size of the running batch (including prompts
// mid-chunk and the static batch): len(RunningRequests()).
func (e *Engine) RunningLen() int { return len(e.running) + len(e.prefilling) }

// AddAdmitHook attaches f to every admitting round. The cluster's planner
// observes prefix-cache hits from here, and a core.MStarObserver
// (AddAdmitHook(o.Observe)) the true M* of the batch each round leaves.
func (e *Engine) AddAdmitHook(f func(now float64, round core.AdmitRound)) {
	e.hooks.admit = append(e.hooks.admit, f)
}

// AddTokenHook attaches f to every emitted token (the streaming server). An
// engine with a token hook never coasts.
func (e *Engine) AddTokenHook(f func(now float64, r *request.Request)) {
	e.hooks.token = append(e.hooks.token, f)
}

// AddExitHook attaches f to every request leaving the engine; r.Outcome
// says how (OutcomePending for a prefill-only handoff). Closed-loop clients
// submit their next request from here, and the cluster books KV transfers.
func (e *Engine) AddExitHook(f func(now float64, r *request.Request)) {
	e.hooks.exit = append(e.hooks.exit, f)
}

// AddIterationHook attaches f to every executed iteration.
func (e *Engine) AddIterationHook(f func(now float64, it Iteration)) {
	e.hooks.iteration = append(e.hooks.iteration, f)
}

// SetRecorder attaches a lifecycle recorder and this engine's cluster
// identity (pool id, replica index). A nil recorder disables emission; the
// cluster layer calls this once at construction, before any Step.
func (e *Engine) SetRecorder(rec obs.Recorder, pool, rep int) {
	e.rec = rec
	e.obsPool = pool
	e.obsRep = rep
}

// failRequest ends r as unservable.
func (e *Engine) failRequest(r *request.Request) {
	r.MarkFailed(e.clock)
	e.leave(r, &e.res.Failed)
}

// leave takes r out of the engine onto its Result list — the one way out,
// for a completion, a drop, a failure or a handoff: the list, the released
// flag, the exit hooks, then the recorder's event for r.Outcome (none for a
// handoff, whose outcome is still pending).
func (e *Engine) leave(r *request.Request, list *[]*request.Request) {
	*list = append(*list, r)
	e.released = true
	for _, f := range e.hooks.exit {
		f(e.clock, r)
	}
	if e.rec == nil {
		return
	}
	switch r.Outcome {
	case request.OutcomeCompleted:
		e.rec.Finish(e.clock, r, e.obsPool, e.obsRep)
	case request.OutcomeDropped:
		e.rec.Drop(e.clock, r, e.obsPool, e.obsRep)
	case request.OutcomeFailed:
		e.rec.Fail(e.clock, r, e.obsPool, e.obsRep)
	}
}

// ReleasedLastStep reports whether the last Step released cluster-visible
// capacity: a request left the engine (finished, handed off, timed out, or
// failed), so a routing probe that previously refused this replica may now
// accept. The cluster's admission queue retries held requests on exactly
// these events instead of polling every tick. Evictions do not set it — an
// evicted request re-queues on the same engine, leaving the predicted peak
// unchanged.
func (e *Engine) ReleasedLastStep() bool { return e.released }

// StepKind says what the last Step moved, as far as an observer that keeps
// an estimator over the engine's running and waiting requests can tell.
type StepKind int

const (
	// StepOther is every Step not described below, and the state after
	// Crash: an estimator over the engine must be rebuilt.
	StepOther StepKind = iota
	// StepPureDecode is a plain decode iteration: every running request
	// gained exactly one token, and nothing else an observer prices moved —
	// nobody joined or left the batch (no admission, prompt chunk, eviction,
	// finish or failure), nobody left the waiting set (requests may have
	// moved from the arrival heap into the queue, which WaitingLen counts as
	// one set), no chunk or prefix-cache stamp changed, and the history
	// window did not move. Coasted steps are such steps.
	StepPureDecode
	// StepAdmitOnly is a fused prefill that moved requests from the waiting
	// set into the running batch and did nothing else: no request left the
	// engine, no running request gained a token, and no admitted request
	// took prefix-cache hits, restored tokens or a swap-in, so every
	// admitted request's estimator entry is the one it had while waiting.
	// Only continuous-batching engines that are not prefill-only and not
	// chunked take such steps.
	StepAdmitOnly
)

// LastStep reports what the last Step moved. The cluster's routing probes
// keep a replica's warm estimator across StepPureDecode — such a step only
// shifts its time axis — and across StepAdmitOnly, which changes no entry,
// and rebuild it after any other.
func (e *Engine) LastStep() StepKind { return e.lastStep }

// Submit schedules a request for arrival. Arrival times before the current
// clock are clamped to now.
func (e *Engine) Submit(r *request.Request) {
	if r.ArrivalTime < e.clock {
		r.ArrivalTime = e.clock
	}
	e.seq++
	e.arrivals.Push(arrivalItem{r: r, at: r.ArrivalTime, seq: e.seq})
}

// SubmitAt schedules a request to enter this engine at time `at` (clamped
// to now) while preserving its original ArrivalTime — unlike Submit, which
// clamps ArrivalTime itself. This is the release path of the cluster-front
// admission queue: a request held at the cluster front keeps its SLA clock
// running from the user's arrival, so the hold shows up in TTFT instead of
// being silently forgiven.
func (e *Engine) SubmitAt(r *request.Request, at float64) {
	if at < e.clock {
		at = e.clock
	}
	e.seq++
	e.arrivals.Push(arrivalItem{r: r, at: at, seq: e.seq})
}

// SubmitMigrated schedules a request handed off from a prefill-only engine:
// it enters this engine's queue at the KV-delivery time `at` (clamped to
// now) while keeping its original ArrivalTime, so TTFT and queue-timeout
// accounting stay measured from the user's arrival. The request must carry
// the prefill token (call request.RecordMigration first); its pre-seeded KV
// footprint (prompt + generated) and conditional remaining-length
// distribution then feed the scheduler's PeakEstimator exactly like a
// re-queued eviction — a known Generated prefix conditioning the quantile.
func (e *Engine) SubmitMigrated(r *request.Request, at float64) {
	if !r.Migrated {
		panic(fmt.Sprintf("engine: SubmitMigrated of request %d without RecordMigration", r.ID))
	}
	e.SubmitAt(r, at)
}

// SubmitAll submits every request in rs as one bulk merge: the arrivals are
// appended to the heap storage and the heap invariant is restored with a
// single O(n+m) sift-down pass, instead of n O(log m) sift-ups. Sequence
// numbers are assigned in slice order, so the pop order (arrival time, FIFO
// on ties) is identical to submitting one at a time.
func (e *Engine) SubmitAll(rs []*request.Request) {
	if len(rs) == 0 {
		return
	}
	for _, r := range rs {
		if r.ArrivalTime < e.clock {
			r.ArrivalTime = e.clock
		}
		e.seq++
		e.arrivals.Append(arrivalItem{r: r, at: r.ArrivalTime, seq: e.seq})
	}
	e.arrivals.Init()
}

// SetSlowFactor sets the transient service-time multiplier. 1 restores
// healthy timing; values above 1 model a degraded replica whose observed
// iteration latency drifts away from the perf model's prediction (the
// cluster planner's correction factors are how the fleet notices).
func (e *Engine) SetSlowFactor(f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("engine: non-positive slow factor %v", f))
	}
	e.slow = f
}

// scaled applies the degradation multiplier to one iteration duration.
func (e *Engine) scaled(dur float64) float64 {
	if e.slow != 1 {
		return dur * e.slow
	}
	return dur
}

// Crash evacuates the engine after a replica failure: the KV pool's contents
// are lost, so every request it holds — queued, running, mid-prefill, in the
// static batch, or still in the arrival heap — is pulled out and returned to
// the caller as orphans, with its KV allocation freed. A static batch's
// finished lanes are freed too but not returned: those requests completed,
// and a lane holds them only until the batch drains. The engine ends empty
// (Idle) and its clock untouched; the cluster layer decides each orphan's
// fate (re-admission with ResetForRetry, or a terminal loss without
// recovery). No engine counters or hooks fire: the work evaporated, it did
// not complete, time out, or fail in the engine-semantics sense. Orphans
// carry every token the engine counted for them, and the last Step's flags
// (ReleasedLastStep, LastStep) are cleared with the batch they
// described.
func (e *Engine) Crash() []*request.Request {
	e.settle()
	e.released, e.lastStep, e.minLeft, e.prefilled = false, StepOther, 0, false
	e.epoch++
	orphans := make([]*request.Request, 0,
		e.queue.Len()+len(e.running)+len(e.prefilling)+e.arrivals.Len())
	e.queue.Filter(
		func(*request.Request) bool { return false },
		func(r *request.Request) { orphans = append(orphans, r) },
	)
	for _, r := range e.running {
		e.free(r)
		if r.Outcome == request.OutcomePending {
			orphans = append(orphans, r)
		}
	}
	e.running = e.running[:0]
	for _, r := range e.prefilling {
		if e.pool.Allocated(r.KV) {
			e.free(r)
		}
		orphans = append(orphans, r)
	}
	e.prefilling = e.prefilling[:0]
	for e.arrivals.Len() > 0 {
		orphans = append(orphans, e.arrivals.Pop().r)
	}
	// GPU memory died with the replica: every warm cached prefix is gone.
	// The host offload store survives off-device, so a restarted replica can
	// still restore spilled prefixes over the wire.
	e.pool.DropPrefixCache()
	e.pendingSwapIn = 0
	e.chunkPending = 0
	return orphans
}

// SyncClock advances the engine clock to at least t without executing any
// work. A repaired replica resumes simulated time at its recovery instant:
// its pre-crash clock would otherwise let requests routed to it during the
// outage execute in the past.
func (e *Engine) SyncClock(t float64) {
	if t > e.clock {
		e.settle() // owed tokens were emitted at the old clock
		e.minLeft = 0
		e.clock = t
	}
}

// Idle reports whether the engine has nothing to do now or in the future.
func (e *Engine) Idle() bool {
	return e.queue.Len() == 0 && len(e.running) == 0 && len(e.prefilling) == 0 && e.arrivals.Len() == 0
}

// arrivalItem is one pending submission, due at `at`: the request's
// ArrivalTime for a fresh submission and the KV-delivery time for a
// migrated one (whose ArrivalTime must stay the user's arrival for SLA
// accounting).
type arrivalItem struct {
	r   *request.Request
	at  float64
	seq int64
}

// arrivalBefore orders the pending submissions by due time, FIFO on ties.
func arrivalBefore(a, b *arrivalItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
