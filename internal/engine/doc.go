// Package engine implements the continuous-batching serving engine the
// schedulers plug into — the simulated counterpart of LightLLM's router +
// inference backend (paper §2.3, §4).
//
// The engine is a step-level discrete-event simulator. Each call to Step
// executes one engine iteration — a fused prefill over newly admitted
// prompts, one decode step for the whole running batch, or (under chunked
// prefill) prompt chunks fused with one decode step — and advances the
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
// the running batch (including prompts mid-chunk and a static batch's
// lanes), or one of the terminal lists in Result, which the engine keeps as
// it runs and Snapshot copies. The one overlap: a static lane that finished
// is on the Finished list and keeps its lane until its batch drains.
// "Waiting" is the first two together — WaitingLen,
// WaitingRequests, ForEachWaiting — and is the only definition observers
// should use for work that has no batch slot yet: QueueLen alone misses
// everything submitted since the last Step. The cluster's routing probes,
// its load signals and the server's status page all count running + waiting.
// The engine knows nothing of KV transfers still on a cluster link toward
// it; those are the cluster's to count.
//
// # Decode steps
//
// Between completion points every running request grows by exactly one token
// per step — the fact Eq. 2–4 rest on, and the reason only completion points
// matter for M*. The same fact says a decode step need not touch a request
// that neither joins nor leaves the batch on it. Such a step coasts (coast):
// it prices DecodeTime on the KV the batch would hold, advances the clock, the
// counters, the occupancy series and the iteration observers, and counts one
// more token owed to every running request. It is chosen per step from what
// the engine observes, not set by a switch, and a step coasts when all of
// these hold:
//
//   - the last Step that did not coast was a decode step or a fused prefill,
//     which settled the batch and noted the fewest tokens any request had
//     left (minLeft), and no request has emitted its last token since;
//   - no token hook listens;
//   - blocks are single tokens, and a physically free one exists for every
//     owed token and this step's, so nothing is evicted and no cached prefix
//     block is reclaimed;
//   - the step's admission round — held whenever a request is queued or an
//     arrival is due — admits nothing, and no queued request is past
//     QueueTimeout (the drop and its hooks run on the per-token path).
//
// Chunked, static and multi-token-block engines never meet the condition, and
// an engine with a token hook (the streaming server) stays on the per-token
// path. That path is the reference: TestCoastMatchesPerTokenPath and
// FuzzCoastSequence hold the two to the same observations and the same
// recorder events, floats bit for bit — the same float additions in the same
// order, the same scheduler calls.
//
// The requests a coasted step does touch are the ones that change:
//
//   - Finishers settle alone. On the step where owed+1 == minLeft some
//     requests emit their last token (finishCoasted). The pool's peaks first
//     take every owed token, this step's included (kv.Pool.NotePeakWith: the
//     per-token step grows the whole batch before it frees anyone). Then the
//     finishers leave the batch (sweepDone), and each alone gets its KV
//     growth, its Generated and its timing, and is freed and finished —
//     history window, exit hooks, recorder — in batch order (release). The
//     per-token path ends its finishers through the same two functions, so
//     an exit hook that reads the batch sees the survivors on both. The
//     survivors keep owing and minLeft becomes theirs. The step is StepOther
//     and releases, so the epoch moves before the next round.
//   - First tokens after a prefill. A prefill appends its newcomers to the
//     batch, one prefill or several in a row, and sets minLeft from the
//     settled batch. The first coasted step after it stamps every running
//     request as EmitToken would (stampAll): a new request's FirstTokenAt
//     and the recorder's first-token event, any other request's gap since
//     its own last token, which spans the prefill for the older ones and the
//     wait in the queue for a re-admitted one. The token itself comes with
//     the owed ones. That walk is one per prefill, like the walk that set
//     minLeft; from there on every request last emitted at the same clock,
//     and each later step's gap is one clock advance for all of them.
//   - A refused round's hand-out (handOut) moves only Generated, the count a
//     scheduler reads together with KVLanded; the View counts the pool's
//     owed growth in UsedTokens and FreeTokens. LastEmitAt and MaxGap wait
//     for the settle, since a maximum taken later gives the same bits. Every
//     gap is a difference of clocks, never a step's duration, which can
//     differ in the last bit.
//   - A round that repeats a refusal touches nobody. Before the hand-out,
//     refuse asks a scheduler that implements core.RepeatRefuser (resolved
//     once, in New) whether it refuses this round as it refused an earlier
//     one of the same Epoch (refusesAgain). What it passes is O(1) to read:
//     the Epoch, the queue's head, the batch's and the queue's lengths, the
//     window, the capacity, and the lead request's Generated as the hand-out
//     would leave it — Generated + owed − handed. On a yes the round is
//     over: no hand-out, no copy of the queue, no View; the owed tokens
//     stay owed until the settle. PastFuture answers from the certificate of
//     its last refusal before drawing (the same repeatRefusal its Admit
//     asks first), skipping the same RNG values, and Conservative from its
//     last refusal of the head on the budget. A decorator that embeds
//     core.Scheduler hides the method and keeps every round on Admit;
//     TestRefusesAgainMatchesAdmit holds the two to the same run.
//
// The invariant: between Steps a running request's Generated, LastEmitAt,
// MaxGap and KV size may trail the engine by the owed tokens (Generated only
// until the next round). Every method that hands out a running request or the
// pool — RunningRequests, ForEachRunning, Pool, Crash, Snapshot, SyncClock —
// settles first, in one pass over the batch, and so does every Step that does
// not coast. Read running requests through the engine, never through a
// pointer kept across Steps. Finished, dropped, failed and evicted requests
// are always exact. A hand-out or a settle that would take a request past its
// output, or settle one that never had its first token stamped, panics
// (misowed): the bookkeeping is checked where the tokens land, one compare per
// request.
//
// # Runs of coasted steps
//
// Inside a run nothing but the clock moves, so where a run ends follows from
// the engine's state alone: CoastEnd prices it step by step without taking a
// step, and CoastUntil takes the run's steps up to a given time. A run ends
// before the first step that holds an admission round, refused or not, and
// before the first step on which a request finishes, which coasts too but is
// an event for the caller. A caller that steps many engines on one clock
// (internal/cluster) can so schedule one event at the end of a run and catch
// the engine up lazily when something lands inside it; between those points
// the engine trails the caller's clock, which is why it must be read only
// after the catch-up. A run may start right after a prefill or after a
// per-token decode step that changed the batch: the first coasted step moves
// the epoch and clears the step flags (LastStep, ReleasedLastStep).
//
// # What coasting measured
//
// Counts at seed 1 (DecodeSteps − CoastedSteps is the per-token decode steps;
// a cluster Step call is one step event popped):
//
//   - engine-closed, the paper's Fig. 7 setting at the memory knee: 1 333 225
//     decode steps, of which 69 039 took the per-token path when only steps
//     that finished nobody and followed a pure decode step could coast, and
//     3 568 since finishes and first tokens coast too; 29 151 steps finish a
//     request on the coasted path. Of 222 847 admission rounds, 196 323
//     admit nothing; before refused rounds coasted, 245 408 decode steps
//     took the per-token path.
//   - replay-day: per-token decode steps 192 459 → 83; cluster Step calls
//     292 062 → 192 339, since a run now starts right after a prefill.
//   - storm-product: per-token runDecode steps 173 454 → 0 beside 84 464
//     chunked iterations, which never coast; cluster Step calls
//     337 347 → 223 585.
//
// Whole-run benchmark pairs (make pairs, ten pairs, 15 s runs, a 2-core
// host), requests per second of host time on engine-closed: coasting the
// plain decode steps, 23.3k → 41.8k (×1.79, seeds 51–60); coasting refused
// rounds, 60.8k → 70.0k (×1.15, seed 1); coasting finishes and first tokens,
// 136.4k → 160.9k at seed 1 (×1.18, ahead in 10 of 10; ×1.30 and ×1.31 in
// two series on earlier versions) and 114.4k → 150.6k at seed 7 (×1.32, 10
// of 10), with replay-day ×1.06, storm-product ×1.02 and serve-http, which
// stays per-token, ×1.01 beside it. None of these moved a simulated number:
// at seeds 1 and 7 every report of engine-closed, replay-day and
// storm-product stayed the same but for CoastedSteps. In a CPU profile of
// twelve engine-closed replays at seed 1, runDecode fell from 25.3% of host
// time to 1.7%, handOut from 5.7% to 3.1% and kv.Pool.Extend from 14.5% to
// 5.7%, and PastFuture.Admit rose from 38.5% to 44.5%: what is left is mostly
// the admission round itself (see internal/core's package documentation). The micro rows are BenchmarkEngineDecodeLong's: /coast, 48
// requests × 4000 output tokens settled once, against /token-hook, the same
// batch walked token by token; /queued, a refused round on every step, which
// Conservative's RefusesAgain settles without walking the batch; and
// /staggered, outputs over 64–4000 tokens re-submitted as they finish, which
// fails if more than a handful of its decode steps take the per-token path.
//
// # One function per transition
//
// Each per-request transition the per-token path takes is written once. emit
// hands a request its next token: EmitToken, the token hooks, the recorder's
// first-token event and the output counter (a coasted step hands its tokens
// over in bulk, and its first tokens through stampAll). finish completes a
// request after the history window; a decode step's finishers leave the batch
// before any of them finishes (sweepDone, then release). leave is the one way out: a completion, a
// queue-timeout drop, an unservable failure and a prefill-only handoff all
// append to their Result list, mark the step as released, run the exit hooks
// (r.Outcome says which exit, still pending for a handoff) and then send the
// recorder its finish, drop or fail event — none for a handoff. A request's
// Outcome and EndedAt are set only through internal/request's Finish, Shed,
// MarkDropped and MarkFailed. A decode token's KV growth that finds no room
// panics (noRoom): room is made first, with ensureExtendable or coast's
// free-block term, so a failed extension is a bug and never a silent
// eviction. Prefill, decode, chunked, prefill-only and static-batch
// iterations all call the same functions, so every iteration kind reports the
// same events.
package engine
