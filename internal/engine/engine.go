// Package engine implements the continuous-batching serving engine the
// schedulers plug into — the simulated counterpart of LightLLM's router +
// inference backend (paper §2.3, §4).
//
// The engine is a step-level discrete-event simulator. Each call to Step
// executes one engine iteration — a fused prefill over newly admitted
// prompts, one decode step for the whole running batch, or (under the
// splitfuse strategy) a mixed token-budget iteration — and advances the
// simulated clock by that iteration's duration from the perf model. All
// scheduling-visible state (KV token occupancy, queue, running batch,
// history window of finished output lengths) is exact; only kernel
// execution is abstracted into durations.
//
// Eviction semantics follow vLLM's recompute policy, which the paper's
// aggressive baseline uses: when the next decode step cannot allocate one
// token per running request, the most recently admitted requests are
// evicted — their KV memory is freed, they re-queue at the *front* of the
// wait queue, and on re-admission their prompt plus previously generated
// tokens are recomputed in a fresh prefill. Evicted requests keep their
// generated-token count (recomputation is deterministic) but their users
// see a stalled stream: the gap shows up in MTPOT and breaks the SLA.
//
// What an observer between two Steps may count. A submitted request is in
// exactly one place: the arrival heap (submitted, not yet queued — it moves
// at the first Step whose clock has reached its due time), the FCFS queue,
// the running batch (including prompts mid-chunk), or one of the terminal
// lists in Result. "Waiting" is the first two together — WaitingLen,
// WaitingRequests, ForEachWaiting — and is the only definition observers
// should use for work that has no batch slot yet: QueueLen alone misses
// everything submitted since the last Step. The cluster's routing probes,
// its load signals and the server's status page all count running + waiting.
// The engine knows nothing of KV transfers still on a cluster link toward
// it; those are the cluster's to count.
//
// Decode steps that owe their tokens. Between completion points every running
// request grows by exactly one token per step (the fact the paper's Eq. 2–4
// rest on), so a decode step on which nothing else can happen need not touch
// the batch: Step advances the engine-wide state — clock, counters, the
// occupancy series, the iteration observers — and counts one more token owed
// to each running request (see coast for the condition and the reason for
// each of its terms). The invariant: between Steps a running request's
// Generated, LastEmitAt, MaxGap and KV size may trail the engine by the owed
// tokens; every method that hands out a running request or the pool
// (RunningRequests, ForEachRunning, Pool, Crash, Snapshot) settles first, in
// one pass over the batch, and so does Step before any iteration that is not
// such a step. Read running requests through the engine, never through a
// pointer kept across Steps. Every simulated number is the one the per-token
// path produces — the same float additions in the same order — and an engine
// with a token hook (the streaming server) stays on that path.
package engine

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/stats"
)

// Strategy selects how iterations are composed.
type Strategy int

const (
	// PrefillPriority runs admitted prompts as one fused prefill iteration
	// before resuming decode — the default in LightLLM, vLLM, and TGI.
	PrefillPriority Strategy = iota
	// SplitFuse packs prefill chunks and decode tokens into fixed
	// token-budget iterations (DeepSpeed-MII/FastGen).
	SplitFuse
	// StaticBatch disables continuous batching: fixed-size batches run to
	// completion with padding, emulating the original (pre-serving-
	// framework) multimodal implementations in Table 2.
	StaticBatch
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case PrefillPriority:
		return "prefill-priority"
	case SplitFuse:
		return "splitfuse"
	case StaticBatch:
		return "static-batch"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Role selects which serving phase the engine executes — the disaggregated
// prefill/decode split (Dynamo, DistServe, Splitwise) at the engine level.
type Role int

const (
	// RoleMixed runs both phases on one engine: monolithic serving, the
	// default and the paper's setting.
	RoleMixed Role = iota
	// RolePrefillOnly runs prompts only: a request completes at its first
	// token (computed by the prefill pass), frees its KV allocation, and is
	// handed off to a decode engine through the OnHandoff hook — unless the
	// first token is also its last, in which case it finishes here.
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

// Hooks are optional observation callbacks. Nil hooks are skipped.
type Hooks struct {
	// OnAdmit fires after a batch of admissions, before their prefill runs.
	// The admitted slice is a per-step scratch buffer the engine reuses:
	// read it during the callback, copy it if it must outlive the Step.
	OnAdmit func(now float64, admitted []*request.Request)
	// OnToken fires for every emitted token (used by the streaming server).
	OnToken func(now float64, r *request.Request)
	// OnFinish fires when a request completes (closed-loop clients submit
	// their next request from here).
	OnFinish func(now float64, r *request.Request)
	// OnEvict fires when a request is evicted from the running batch.
	OnEvict func(now float64, r *request.Request)
	// OnDrop fires when a queued request is abandoned via QueueTimeout.
	OnDrop func(now float64, r *request.Request)
	// OnFail fires when the engine drops a request as unservable.
	OnFail func(now float64, r *request.Request)
	// OnHandoff fires when a prefill-only engine completes a request's
	// prompt and releases it for migration to a decode engine. The request's
	// KV memory is already freed; r.PrefillDoneAt records the handoff time.
	OnHandoff func(now float64, r *request.Request)
	// OnIteration fires after every engine iteration.
	OnIteration func(now float64, it Iteration)
}

// Iteration describes one executed engine iteration for observers.
type Iteration struct {
	Kind     string // "prefill", "decode", "mixed", "chunked", "static"
	Duration float64
	// BatchSize is the number of requests in the iteration: prompts on
	// "prefill", decode lanes on "decode" and "static", decode lanes plus
	// the prompts that advanced a chunk on "mixed" and "chunked".
	BatchSize int
	KVTokens  int
}

// Config configures an engine.
type Config struct {
	// Perf is the latency/capacity model of the deployment. Required.
	Perf *perf.Model
	// Scheduler makes admission decisions. Required unless Strategy is
	// StaticBatch.
	Scheduler core.Scheduler
	// BlockSize is the KV allocation granularity (1 = LightLLM token
	// granularity, 16 = vLLM paging). 0 selects 1.
	BlockSize int
	// HistoryWindow is the size of the finished-output-length window fed to
	// the scheduler. 0 selects 1000 (the paper's setting).
	HistoryWindow int
	// Strategy selects the iteration composition.
	Strategy Strategy
	// Role selects monolithic (RoleMixed, default) or disaggregated
	// prefill-only/decode-only operation. Non-mixed roles require the
	// PrefillPriority strategy.
	Role Role
	// SplitFuseBudget is the token budget per mixed iteration. 0 selects 512.
	SplitFuseBudget int
	// MaxPrefillTokens caps the prompt tokens fused into one prefill
	// iteration under PrefillPriority (real frameworks' max batched-token
	// knob): a smaller cap bounds how long decode stalls behind admissions,
	// trading TTFT for MTPOT. 0 = unlimited. At least one request is always
	// prefilled so oversized prompts still make progress.
	MaxPrefillTokens int
	// StaticBatchSize is the fixed batch size for StaticBatch. 0 selects 8.
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
	// ClassHistory additionally maintains one history window per request
	// Class (service/task type). Class-aware schedulers can then predict
	// from the request's own service distribution instead of the global
	// mixture — an extension for the multi-tenant/API deployments whose
	// mixed distributions the paper observes drifting (§3.2).
	ClassHistory bool
	// PrefixCache configures prompt prefix caching. The zero value disables
	// it, keeping the engine bit-identical to the cache-less code path.
	PrefixCache PrefixCacheConfig
	// Chunked configures chunked prefill. The zero value disables it,
	// keeping the engine bit-identical to the fused-prefill code path.
	Chunked ChunkConfig

	Hooks Hooks
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
	// toward MaxChunkTokens (fewer per-chunk overheads), a tight deadline
	// behind a long prompt shrinks it toward MinChunkTokens so the waiter
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

// ChunkConfig enables chunked prefill under the PrefillPriority strategy:
// long prompts land chunk by chunk, interleaved with decode steps for the
// running batch, so a 32k-token prompt no longer head-of-line-blocks every
// short request behind it. The zero value disables chunking and reproduces
// the fused-prefill engine bit-identically.
type ChunkConfig struct {
	// Enabled switches chunked prefill on. Requires PrefillPriority.
	Enabled bool
	// Policy selects the chunk sizer (greedy fixed or SLO-aware).
	Policy ChunkPolicy
	// ChunkTokens is the greedy policy's fixed chunk size and the SLO-aware
	// policy's no-signal fallback. 0 selects 512.
	ChunkTokens int
	// MinChunkTokens floors the SLO-aware sizer so starved budgets still
	// make forward progress. 0 selects 128.
	MinChunkTokens int
	// MaxChunkTokens caps the SLO-aware sizer when slack is plentiful.
	// 0 selects 4096.
	MaxChunkTokens int
	// SlackShare is the fraction of the tightest waiter's remaining TTFT
	// budget one chunk may consume. 0 selects 0.25.
	SlackShare float64
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
// (coast, observe, iterationHook, decodeFloor) reads usage through usedTokens.
type Engine struct {
	cfg       Config
	pool      *kv.Pool
	history   *dist.Window
	classHist map[string]*dist.Window // per-class windows (ClassHistory)
	sched     core.Scheduler
	clock     float64
	arrivals  arrivalHeap
	seq       int64

	queue      reqDeque           // FCFS wait queue; evictions push front
	running    []*request.Request // decoding batch, admission order
	prefilling []*prefillState    // splitfuse/chunked: prompts being chunked

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
	admitScratch []*request.Request // admissions of the current step
	viewScratch  core.View          // the scheduler's read-only state
	truePeak     core.PeakEstimator // ground-truth M* bookkeeping

	// Chunked-prefill per-step scratch (see chunk.go).
	finishScratch    []*request.Request // prompts whose last chunk landed
	chunkEmitScratch []chunkEmit        // deferred recorder emissions
	chunkSuffix      []float64          // suffix-min pipeline deadlines

	// Counters and accumulators for Result.
	finished        []*request.Request
	failed          []*request.Request
	timedOut        []*request.Request
	handedOff       []*request.Request // prefill-only: completed prompts awaiting migration
	decodeSteps     int
	prefillIters    int
	mixedIters      int
	chunkIters      int   // chunked-prefill iterations executed
	prefillChunks   int64 // prefill chunks carved across them
	evictions       int
	admissions      int
	outputTokens    int64
	inputTokens     int64
	recomputeTokens int64
	swapInTokens    int64
	// Prefix-cache accumulators. Hit/restored tokens are prefill the engine
	// skipped; prefillComputeTokens is what it actually encoded — the pair
	// the benchmark's prefill-savings acceptance reads. lastCacheEvict
	// watermarks the pool's cumulative eviction counter for per-iteration
	// CacheEvent emission.
	cacheHitTokens       int64
	cacheRestoredTokens  int64
	prefillComputeTokens int64
	lastCacheEvict       int64
	pendingSwapIn        float64 // swap-in seconds owed by the next iteration
	memUtil              stats.TimeWeighted
	physUtil             stats.TimeWeighted
	futureReq            stats.Online
	batchSize            stats.TimeWeighted
	started              bool
	startClock           float64
	admitRetries         int
	released             bool // a request left the engine during the last Step
	pureDecode           bool // the last Step only grew the running batch by one token each

	// Coasted decode steps (see the package comment and coast). owed tokens
	// are counted for every running request — in clock, outputTokens and the
	// occupancy series — but not yet handed to it or to the pool; owedGap is
	// the largest clock advance among the steps that owe them, each request's
	// largest inter-token gap over the run. minLeft is the fewest tokens any
	// running request had left to emit when the batch was last settled; it is
	// positive only after a runDecode that kept its batch, the one state a
	// run of coasted steps can start from.
	owed         int
	owedGap      float64
	minLeft      int
	coastedSteps int

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

	staticBatch []*request.Request // StaticBatch mode: the batch in flight
}

type prefillState struct {
	req  *request.Request
	need int // prompt tokens still to process
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Perf == nil {
		return nil, fmt.Errorf("engine: perf model is required")
	}
	if cfg.Scheduler == nil && cfg.Strategy != StaticBatch {
		return nil, fmt.Errorf("engine: scheduler is required")
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 1
	}
	if cfg.BlockSize < 0 {
		return nil, fmt.Errorf("engine: negative block size %d", cfg.BlockSize)
	}
	if cfg.HistoryWindow == 0 {
		cfg.HistoryWindow = 1000
	}
	if cfg.HistoryWindow < 0 {
		return nil, fmt.Errorf("engine: negative history window %d", cfg.HistoryWindow)
	}
	if cfg.SplitFuseBudget == 0 {
		cfg.SplitFuseBudget = 512
	}
	if cfg.StaticBatchSize == 0 {
		cfg.StaticBatchSize = 8
	}
	capacity := cfg.Perf.CapacityTokens()
	if cfg.CapacityOverride > 0 {
		capacity = cfg.CapacityOverride
	}
	if cfg.QueueTimeout < 0 {
		return nil, fmt.Errorf("engine: negative queue timeout %v", cfg.QueueTimeout)
	}
	if cfg.Role != RoleMixed && cfg.Strategy != PrefillPriority {
		return nil, fmt.Errorf("engine: role %v requires the prefill-priority strategy, got %v", cfg.Role, cfg.Strategy)
	}
	if cfg.Chunked.Enabled {
		if cfg.Strategy != PrefillPriority {
			return nil, fmt.Errorf("engine: chunked prefill requires the prefill-priority strategy, got %v", cfg.Strategy)
		}
		if cfg.Chunked.ChunkTokens == 0 {
			cfg.Chunked.ChunkTokens = 512
		}
		if cfg.Chunked.MinChunkTokens == 0 {
			cfg.Chunked.MinChunkTokens = 128
		}
		if cfg.Chunked.MaxChunkTokens == 0 {
			cfg.Chunked.MaxChunkTokens = 4096
		}
		if cfg.Chunked.SlackShare == 0 {
			cfg.Chunked.SlackShare = 0.25
		}
		if cfg.Chunked.ChunkTokens < 0 || cfg.Chunked.MinChunkTokens < 0 || cfg.Chunked.MaxChunkTokens < 0 {
			return nil, fmt.Errorf("engine: negative chunk sizes %+v", cfg.Chunked)
		}
		if cfg.Chunked.MinChunkTokens > cfg.Chunked.MaxChunkTokens {
			return nil, fmt.Errorf("engine: chunk floor %d above cap %d",
				cfg.Chunked.MinChunkTokens, cfg.Chunked.MaxChunkTokens)
		}
		if cfg.Chunked.SlackShare < 0 || cfg.Chunked.SlackShare > 1 {
			return nil, fmt.Errorf("engine: chunk slack share %v outside [0,1]", cfg.Chunked.SlackShare)
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
		cfg:     cfg,
		pool:    kv.NewPool(capacity, cfg.BlockSize),
		history: dist.NewWindow(cfg.HistoryWindow),
		sched:   cfg.Scheduler,
		slow:    1,
	}
	if cfg.PrefixCache.Enabled {
		e.pool.EnablePrefixCache(kv.PrefixConfig{
			BlockTokens:           cfg.PrefixCache.BlockTokens,
			OffloadCapacityTokens: cfg.PrefixCache.OffloadCapacityTokens,
		})
	}
	if cfg.ClassHistory {
		e.classHist = map[string]*dist.Window{}
	}
	for _, l := range cfg.SeedHistory {
		e.history.Add(l)
	}
	return e, nil
}

// ClassWindow returns the history window for a service class, or nil when
// per-class history is disabled or the class is unseen.
func (e *Engine) ClassWindow(class string) *dist.Window {
	if e.classHist == nil {
		return nil
	}
	return e.classHist[class]
}

// recordFinishedLength feeds the global (and per-class) history windows.
func (e *Engine) recordFinishedLength(class string, length int) {
	e.history.Add(length)
	if e.classHist == nil {
		return
	}
	w, ok := e.classHist[class]
	if !ok {
		w = dist.NewWindow(e.cfg.HistoryWindow)
		e.classHist[class] = w
	}
	w.Add(length)
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

// ChunkedPrefillEnabled reports whether the engine lands prompts chunk by
// chunk — the cluster's admission floor and planner add the per-chunk
// overhead penalty exactly when this is on.
func (e *Engine) ChunkedPrefillEnabled() bool { return e.cfg.Chunked.Enabled }

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

// RunningRequests returns a copy of the running batch (including splitfuse
// prompts in flight), for observers like the multi-replica router.
func (e *Engine) RunningRequests() []*request.Request {
	e.settle()
	out := make([]*request.Request, 0, len(e.running)+len(e.prefilling)+len(e.staticBatch))
	out = append(out, e.running...)
	for _, p := range e.prefilling {
		out = append(out, p.req)
	}
	out = append(out, e.staticBatch...)
	return out
}

// WaitingRequests returns a copy of the waiting set (see WaitingLen): the
// wait queue in FCFS order, then the submitted-but-not-yet-queued requests
// in no particular order.
func (e *Engine) WaitingRequests() []*request.Request {
	out := e.queue.AppendTo(make([]*request.Request, 0, e.WaitingLen()))
	for _, it := range e.arrivals {
		out = append(out, it.r)
	}
	return out
}

// ForEachRunning calls f for every request in the running batch (including
// splitfuse prompts in flight and the static batch) without allocating —
// the cluster routing probes' view of the batch. The iteration order
// matches RunningRequests.
func (e *Engine) ForEachRunning(f func(*request.Request)) {
	e.settle()
	for _, r := range e.running {
		f(r)
	}
	for _, p := range e.prefilling {
		f(p.req)
	}
	for _, r := range e.staticBatch {
		f(r)
	}
}

// ForEachWaiting calls f for every waiting request (see WaitingLen) without
// allocating, in WaitingRequests order.
func (e *Engine) ForEachWaiting(f func(*request.Request)) {
	e.queue.ForEach(f)
	for _, it := range e.arrivals {
		f(it.r)
	}
}

// RunningLen returns the size of the running batch (including prompts being
// chunk-prefilled under splitfuse).
func (e *Engine) RunningLen() int { return len(e.running) + len(e.prefilling) }

// AddFinishHook chains f after any existing OnFinish hook. Closed-loop
// clients use this to submit their next request on completion.
func (e *Engine) AddFinishHook(f func(now float64, r *request.Request)) {
	prev := e.cfg.Hooks.OnFinish
	e.cfg.Hooks.OnFinish = func(now float64, r *request.Request) {
		if prev != nil {
			prev(now, r)
		}
		f(now, r)
	}
}

// AddTokenHook chains f after any existing OnToken hook (streaming server).
func (e *Engine) AddTokenHook(f func(now float64, r *request.Request)) {
	prev := e.cfg.Hooks.OnToken
	e.cfg.Hooks.OnToken = func(now float64, r *request.Request) {
		if prev != nil {
			prev(now, r)
		}
		f(now, r)
	}
}

// AddEvictHook chains f after any existing OnEvict hook.
func (e *Engine) AddEvictHook(f func(now float64, r *request.Request)) {
	prev := e.cfg.Hooks.OnEvict
	e.cfg.Hooks.OnEvict = func(now float64, r *request.Request) {
		if prev != nil {
			prev(now, r)
		}
		f(now, r)
	}
}

// AddDropHook chains f after any existing OnDrop hook.
func (e *Engine) AddDropHook(f func(now float64, r *request.Request)) {
	prev := e.cfg.Hooks.OnDrop
	e.cfg.Hooks.OnDrop = func(now float64, r *request.Request) {
		if prev != nil {
			prev(now, r)
		}
		f(now, r)
	}
}

// AddHandoffHook chains f after any existing OnHandoff hook. The cluster's
// transfer link schedules the KV migration from here.
func (e *Engine) AddHandoffHook(f func(now float64, r *request.Request)) {
	prev := e.cfg.Hooks.OnHandoff
	e.cfg.Hooks.OnHandoff = func(now float64, r *request.Request) {
		if prev != nil {
			prev(now, r)
		}
		f(now, r)
	}
}

// AddFailHook chains f after any existing OnFail hook.
func (e *Engine) AddFailHook(f func(now float64, r *request.Request)) {
	prev := e.cfg.Hooks.OnFail
	e.cfg.Hooks.OnFail = func(now float64, r *request.Request) {
		if prev != nil {
			prev(now, r)
		}
		f(now, r)
	}
}

// AddAdmitHook chains f after any existing OnAdmit hook. The cluster's
// dynamic admission slack observes the engine-side wait from here.
func (e *Engine) AddAdmitHook(f func(now float64, admitted []*request.Request)) {
	prev := e.cfg.Hooks.OnAdmit
	e.cfg.Hooks.OnAdmit = func(now float64, admitted []*request.Request) {
		if prev != nil {
			prev(now, admitted)
		}
		f(now, admitted)
	}
}

// SetRecorder attaches a lifecycle recorder and this engine's cluster
// identity (pool id, replica index). A nil recorder disables emission; the
// cluster layer calls this once at construction, before any Step.
func (e *Engine) SetRecorder(rec obs.Recorder, pool, rep int) {
	e.rec = rec
	e.obsPool = pool
	e.obsRep = rep
}

// failRequest records a request as unservable and fires OnFail.
func (e *Engine) failRequest(r *request.Request) {
	r.MarkFailed()
	e.failed = append(e.failed, r)
	e.released = true
	if e.cfg.Hooks.OnFail != nil {
		e.cfg.Hooks.OnFail(e.clock, r)
	}
	if e.rec != nil {
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

// PureDecodeLastStep reports whether the last Step was a plain decode
// iteration: every running request gained exactly one token, and nothing
// else an observer prices moved — nobody joined or left the batch (no
// admission, prompt chunk, eviction, finish or failure), nobody left the
// waiting set (requests may have moved from the arrival heap into the queue,
// which WaitingLen counts as one set), no chunk or prefix-cache stamp
// changed, and the history window did not move. The cluster's routing probes
// keep a replica's warm estimator across such steps — they only shift its
// time axis — and rebuild it after any other.
func (e *Engine) PureDecodeLastStep() bool { return e.pureDecode }

// AddIterationHook chains f after any existing OnIteration hook.
func (e *Engine) AddIterationHook(f func(now float64, it Iteration)) {
	prev := e.cfg.Hooks.OnIteration
	e.cfg.Hooks.OnIteration = func(now float64, it Iteration) {
		if prev != nil {
			prev(now, it)
		}
		f(now, it)
	}
}

// Submit schedules a request for arrival. Arrival times before the current
// clock are clamped to now.
func (e *Engine) Submit(r *request.Request) {
	if r.ArrivalTime < e.clock {
		r.ArrivalTime = e.clock
	}
	e.seq++
	e.arrivals.push(arrivalItem{r: r, at: r.ArrivalTime, seq: e.seq})
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
	e.arrivals.push(arrivalItem{r: r, at: at, seq: e.seq})
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
	r.State = request.Waiting
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
		e.arrivals = append(e.arrivals, arrivalItem{r: r, at: r.ArrivalTime, seq: e.seq})
	}
	e.arrivals.init()
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

// SlowFactor returns the current service-time multiplier.
func (e *Engine) SlowFactor() float64 { return e.slow }

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
// the caller as orphans, with its KV allocation freed. The engine ends empty
// (Idle) and its clock untouched; the cluster layer decides each orphan's
// fate (re-admission with ResetForRetry, or a terminal loss without
// recovery). No engine counters or hooks fire: the work evaporated, it did
// not complete, time out, or fail in the engine-semantics sense. Orphans
// carry every token the engine counted for them, and the last Step's flags
// (ReleasedLastStep, PureDecodeLastStep) are cleared with the batch they
// described.
func (e *Engine) Crash() []*request.Request {
	e.settle()
	e.released, e.pureDecode, e.minLeft = false, false, 0
	orphans := make([]*request.Request, 0,
		e.queue.Len()+len(e.running)+len(e.prefilling)+len(e.staticBatch)+e.arrivals.Len())
	e.queue.Filter(
		func(*request.Request) bool { return false },
		func(r *request.Request) { orphans = append(orphans, r) },
	)
	for _, r := range e.running {
		e.free(r)
		orphans = append(orphans, r)
	}
	e.running = e.running[:0]
	for _, p := range e.prefilling {
		if e.pool.Allocated(p.req.KV) {
			e.free(p.req)
		}
		orphans = append(orphans, p.req)
	}
	e.prefilling = e.prefilling[:0]
	for _, r := range e.staticBatch {
		if e.pool.Allocated(r.KV) {
			e.free(r)
		}
		orphans = append(orphans, r)
	}
	e.staticBatch = e.staticBatch[:0]
	for e.arrivals.Len() > 0 {
		orphans = append(orphans, e.arrivals.pop().r)
	}
	// GPU memory died with the replica: every warm cached prefix is gone.
	// The host offload store survives off-device, so a restarted replica can
	// still restore spilled prefixes over the wire.
	e.pool.DropPrefixCache()
	e.pendingSwapIn = 0
	e.chunkPending = 0
	e.admitRetries = 0
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
	return e.queue.Len() == 0 && len(e.running) == 0 && len(e.prefilling) == 0 &&
		len(e.staticBatch) == 0 && e.arrivals.Len() == 0
}

// arrival heap: orders pending submissions by due time, FIFO on ties. The
// due time `at` is the request's ArrivalTime for fresh submissions and the
// KV-delivery time for migrated ones (whose ArrivalTime must stay the
// user's arrival for SLA accounting).
// A typed binary heap rather than container/heap: the interface{} boxing of
// heap.Push/Pop allocates per arrival, which the scheduling hot path avoids.
type arrivalItem struct {
	r   *request.Request
	at  float64
	seq int64
}

type arrivalHeap []arrivalItem

func (h arrivalHeap) Len() int { return len(h) }

func (h arrivalHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *arrivalHeap) push(it arrivalItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *arrivalHeap) pop() arrivalItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = arrivalItem{} // release the request pointer
	*h = s[:n]
	(*h).siftDown(0)
	return top
}

func (h arrivalHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// init re-establishes the heap invariant over the whole slice (Floyd's
// bottom-up heapify, O(n)) — the bulk-merge path of SubmitAll.
func (h arrivalHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}
