// Package cluster is the fleet layer between the serving engine and the
// world: an event-driven multi-replica simulator with predictive,
// SLA-driven autoscaling — the paper's §7 future-work proposal (routing by
// predicted future memory demand) grown into a real subsystem.
//
// The layer is built from role-aware pools. A Pool owns replicas that all
// execute one serving phase (engine.RoleMixed, RolePrefillOnly,
// RoleDecodeOnly) behind a routing policy and an optional autoscaler; a
// Cluster composes pools behind a single event min-heap (replica engine
// steps, replica activations, autoscaler ticks, KV-handoff deliveries) so
// every pool shares one simulated clock. Two topologies are supported:
//
//   - Monolithic: one RoleMixed pool, NewCluster(ClusterConfig{Pools:
//     []Config{cfg}}); its Pool(0) is the fleet's routing and scaling view.
//   - Disaggregated (Dynamo/DistServe/Splitwise-style): a prefill pool and
//     a decode pool behind a two-stage router. Arrivals take a
//     FutureHeadroom (or RR/least-loaded) pick in the prefill pool; a
//     prefill-only engine completes the request at its first token and
//     hands it off; the KV cache crosses a kv.Link (bandwidth + latency +
//     queueing on the wire, so the handoff is simulated, not free); on
//     delivery the request takes a second FutureHeadroom pick in the
//     decode pool and is admitted through engine.SubmitMigrated with its
//     KV footprint pre-seeded.
//
// Routing probes, the section below, say what a FutureHeadroom decision
// reads and why it prices only a few replicas of a large fleet.
//
// The simulation runs on one core: one event heap, one event at a time, and
// one event per run of coasted decode steps rather than per step. Most steps
// of a busy replica are coasted (engine.CoastEnd): nobody else can see them
// until the run ends, so the replica's step event sits at the run's end and
// the replica is caught up lazily, before any arrival or non-step event
// reads or changes it (events.go). The decisions are those of a loop that
// pops every step: an engine with a token hook never coasts, so a cluster of
// such engines is that loop, and TestCoastRunMatchesPerStepPath runs every
// equivalence scenario both ways.
//
// Autoscaling is per pool: the threshold-reactive
// high/low-water policy, or the predictive SLA planner (PlannerConfig, the
// section below) that forecasts load and scales straight to the replica
// count whose interpolated latency meets the targets — TTFT sizes a prefill
// pool, TPOT sizes a decode pool, both size a mixed pool.
//
// With AdmissionConfig the arrival path becomes a cluster-front admission
// pipeline (admission.go): arrivals the probes cannot place are held in a
// deadline-indexed global EDF queue, released on capacity events (replica
// steps that freed a request, activations, KV deliveries, autoscaler
// moves) instead of per-tick polling, and shed — request.OutcomeShed —
// once their remaining TTFT budget cannot cover the predicted prefill +
// transfer floor. Handoffs whose expected delivery already overruns the
// deadline are dropped at the prefill→transfer boundary, before any link
// bandwidth is booked.
//
// # Routing probes
//
// Load-aware routing asks each accepting replica one question — what would
// your predicted future peak memory be with this request on you? — through a
// warm core.PeakEstimator per replica (FutureHeadroom; LeastLoaded counts
// requests instead). What the probe counts is everything the router has put
// on the replica: the running batch, the FCFS queue, and the requests placed
// since the replica's last step, which wait in the engine's arrival heap
// until that step runs (engine.WaitingLen = queue + placed-not-yet-queued;
// the reactive autoscaler's load signal and the server's /v1/status use the
// same definition). A placement splices its one entry into the sorted
// estimator (Pool.placed: a binary search and a copy, 0 allocs), so the
// probe for the very next arrival — also one at the same instant — already
// sees it. KV still on the wire toward a decode replica is the one thing not
// counted (measured neutral, see ROADMAP).
//
// What a probe reads now. A replica's estimator is rebuilt from its engine
// only when the routing decision cannot be made without it. After every step
// the engine says what the step moved (engine.LastStep): StepPureDecode —
// every running request one token further, nobody admitted, chunked,
// evicted, finished or dropped, window untouched (87% of replay-day's steps,
// 92% of storm-product's) — after which the estimator stays and counts one
// more step of lag; StepAdmitOnly — a fused prefill that moved requests from
// the waiting set into the batch and did nothing else (no release, no
// prefix-cache hit or restore, no swap-in; not chunked, not prefill-only) —
// after which it stays as it is, since every entry it holds is the one it
// had; and StepOther, which, like a crash, invalidates it (replica.moved is
// the one place that decides). A probe of a lagging replica asks the old
// estimator about the candidate shifted back in time — PeakWith({C−k,
// R+k}) − k·static, k the lag — and that is a lower bound of what a rebuild
// would answer: Eq. 2–4's M* is a maximum over future time points of the
// batch's summed memory; seen from the estimator's own instant every running
// request holds exactly what its entry said it would, for at least as long
// (a conditional quantile never falls as the request generates), today's
// candidate is the entry (C−k, R+k), and each *static* entry — waiting at
// the rebuild, or spliced in since, and still static once an admission step
// moved it into the batch — holds at most k tokens less than its entry says.
// The bound is the exact value when nothing is static and no clamped
// quantile moved.
//
// Which replicas a decision prices. Every replica with a valid estimator
// also has a *floor*, a lower bound of its exact probe for any candidate:
// max(peak − k·static, 0), the same time shift without a candidate, since a
// candidate (whose Current is never negative) never lowers M*. The pool
// keeps its accepting replicas in an index ordered by floor (Pool.byFloor,
// the keys inline, repaired by one insertion-sort pass when a rebuild, a
// splice, or a decode step of a replica with static entries moves a floor;
// an invalidated replica keeps its place on a stale list and is rebuilt
// before the next sweep, as any probe of it would be). bestProbe — pick's
// FutureHeadroom arm and the admission gate — sweeps that index in order and
// stops at the first replica whose floor is over the running minimum and
// either over the gate or, at the fastest flavor's speed and the largest
// affinity bonus the request can get, unable to beat or tie the best (fits,
// score) found so far: no replica after it can. A replica it reaches is
// first held to a floor tightened by the candidate — when the candidate's
// shifted remaining length is at least the estimator's longest, it is
// resident at every completion point, so the bound is at least peak −
// k·static + C − k (the term joins before the clamp at 0) — and is priced
// only if that floor can still win. Equal scores resolve by index, as in an
// index-order sweep. The decision is the sweep over every replica's bound
// (fullBestProbe, the test oracle) to the bit, replica and minimum fraction
// (TestPrunedSweepMatchesFullSweep, at every arrival of seven small fleets,
// one of them heterogeneous with affinity and a gate), and every floor is
// checked against the brute-force probe after every event
// (TestProbeFloorIsSound). On a 96-replica fleet shaped like replay-day an
// arrival reaches about half the replicas and prices about 12 of 96. The
// decode stage's pickDecode still sweeps every replica: its delivery term
// has no floor. Ten alternating parent/change pairs: replay-day
// requests_per_s 160.2k → 192.2k (×1.200) at seed 1 and 165.5k → 207.9k
// (×1.256) at seed 7, the change ahead in 10 of 10 each; storm-product
// ×1.05–1.08 (4 and 2 pairs); engine-closed and serve-http inside their
// spread; every simulated metric equal in every pair. The traced
// cluster.route_s falls 0.375 → 0.195 s. The 1M-request day runs at the
// knee, where what routing costs is proving a lagging winner (a rebuild that
// walks its whole waiting set), and did not move (153.9k → 155.4k heap
// events per wall second).
//
// An argmin needs no more than a lower bound of every replica but the one it
// returns: bestProbe and pickDecode sweep over bounds and exact values,
// rebuild the replica the sweep ends on, and sweep again only if that moved
// its value — the rankings are monotone in the fraction, so the result is
// the exact sweep's, index-order ties included (TestLaggedBoundIsSound
// checks replica *and* minimum fraction against a brute-force sweep after
// every event of six small fleets; TestFutureHeadroomDecisionsGolden pins
// two whole days to hashes recorded before the change). load and the
// window-generation guard stay exact. Second, PeakWith(c) = max(a, c.Current
// + d, 0) where a and d depend only on the estimator and c.Remaining
// (core.PeakTerms): each replica keeps the pair for the last remaining
// length probed, so a replica that neither stepped nor took a placement
// since the previous arrival costs two compares, not a binary search —
// provided the two candidates' predicted lengths clamp to one value (the
// same max_new_tokens cap at or under the window's quantile, or any two caps
// above it). At seed 1 that is 88% of replay-day's probes and 54% of
// storm-product's; measured apart from the bound, ten alternating pairs
// against probing through PeakWith (seeds 61–70), it is worth ×1.08 of
// replay-day's requests_per_s (128.2k → 138.6k, 10 of 10) and nothing either
// way on storm-product (5 of 10).
//
// On replay-day (96 replicas, seed 1) an arrival used to rebuild 10.2
// estimators; it now rebuilds 1.55 — 1.35 of them because the replica's last
// step admitted or finished someone, 0.20 to prove a sweep's winner — and
// rules 67.7 lagging replicas out on their bound; 99.9% of sweeps run once.
// storm-product (12 prefill and 16 decode replicas behind admission): 7.4 →
// 1.9 rebuilds per sweep. Ten alternating parent/change pairs on seeds
// 41–50: replay-day requests_per_s 97.7k (quartiles 96.3–100.9k) → 140.1k
// (137.4–142.7k), ×1.45, the change ahead in 10 of 10; storm-product 47.8k →
// 52.7k (×1.10, 10 of 10); engine-closed and serve-http, which route
// nothing, inside their own spread; every simulated metric on the three
// deterministic workloads equal to the last digit in all 30 pairs. In the
// traced run cluster.route_s falls 0.705 → 0.321 s with engine.step_ns and
// core.admit_ns_per_call where they were. The micro rows that see it (one
// host, ns per pick): BenchmarkFleetRoute/replicas=96 — nothing stepped,
// every probe a memo hit — 1808 → 1128; BenchmarkFleetRoutePureStep — an
// eighth of the 96 replicas took a real pure decode step since the last pick
// — 1283 (1.9 µs without the memo), against 7790 for the same fleet when
// every step cost a rebuild, which is what the parent's
// BenchmarkFleetRouteStepped measured and what
// BenchmarkFleetRouteRebuild/replicas=96 still does (7997: the worst case is
// not cheaper, and at replicas=4, all four rebuilt per pick, about 8% dearer
// — the bound's bookkeeping, the same with and without the memo).
//
// What a probe reads is kept small enough to stay in cache across a large
// fleet. "How many window samples are ≤ g" — the rank behind every
// conditional quantile P(l | l > g), asked once per running request at each
// estimator rebuild and once per candidate — is one load from a rank index
// the history window maintains beside its sorted CDF (internal/dist), not a
// binary search over the replica's own 8 kB array; a candidate that has
// generated nothing is priced from the quantile the replica recorded at its
// last rebuild and reads no window memory at all; and the estimator sorts a
// rebuilt batch with an insertion sort over the reversed engine order (which
// is nearly sorted) and finds a candidate's rank with a closure-free search.
// On replay-day (96 replicas) that took Pool.pick from 60% to 44% of a
// replay that is itself 1.9× shorter: ten alternating parent/change pairs on
// seeds 21–30, requests_per_s 39.1k (quartiles 37.7–40.0k) → 73.7k
// (67.0–77.1k), the change ahead in 10 of 10, every simulated metric equal
// to the last digit. The 4- and 16-replica micro rows run from the
// first-level cache and barely see it (BenchmarkFleetRoute/replicas=16 483 →
// 409 ns); replicas=96 with full 1000-sample windows reads 4.4 → 2.5 µs, and
// the same fleet with an eighth of the replicas rebuilt per pick — then
// BenchmarkFleetRouteStepped, today BenchmarkFleetRouteRebuild/replicas=96 —
// 32.5 → 12.4 µs.
//
// Before that splice a placement stayed invisible until the replica's next
// step — tens of simulated milliseconds — so every arrival inside that
// interval saw the same "emptiest" replica: on replay-day (125 000 arrivals,
// 96 replicas, seed 5) the picks came in runs of 6.9 in a row on the same
// replica on average, the longest 168 (now 1.3 and 25), and that herd — not
// the fleet's capacity — set the tail. Ten alternating parent/change pairs
// of the whole-run benchmark on seeds 11–20 (medians; the change ahead in 10
// of 10 pairs on every simulated row below; storm-product's p99 TTFT stays
// pinned at its 10 s admission budget):
//
//	                                           before                 after
//	replay-day p99 TTFT, sim-s                 9.30 (9.22–9.59)       0.40 (0.39–0.41)
//	replay-day SLA attainment                  0.9865                 1.0000
//	replay-day goodput, tok/sim-s              69.7k                  71.2k
//	replay-day prefill tokens / request        329.4                  323.0
//	replay-day requests/s of host time         49.98k (49.37–50.21k)  49.74k (49.51–49.96k)
//	storm-product goodput / attainment         4641 / 0.923           4677 / 0.932
//	storm-product requests/s of host time      32.45k                 32.02k
//	BenchmarkFleetRoutePlace                   —                      354 ns, 0 allocs
//	8 same-instant arrivals on 4 idle replicas 8 / 0 / 0 / 0          2 / 2 / 2 / 2
//
// Parentheses hold quartiles; goodput is in tokens per simulated second.
// Prefill tokens per request include recompute after evictions.
// storm-product served 1% more requests to completion, with 4× more
// admission holds. BenchmarkFleetRoutePlace times a pick over 4 replicas,
// the submit and the splice.
//
// # SLA planner
//
// Every Interval a pool's planner closes an observation interval — arrival
// rate, mean input and output lengths (isl, osl), the mean latencies of the
// requests finished in it, the prefix-cache hit fraction, sheds and crashes
// — and sizes the pool for the next one. Holt's linear-trend method is the
// one forecaster (HoltPredictor, the only PredictorKind): one per signal, a
// level and a per-interval trend smoothed at 0.6 and 0.35, forecast one
// interval ahead, so a ramp is extrapolated and the pool scales out before
// the burst arrives. The rate sized for is the larger of the forecast and
// the rate just observed: a forecast dip at a ramp's onset never sheds
// capacity that load arriving now needs.
//
// Pricing. flavorThroughput prices one replica of each flavor at the
// forecast shape from the flavor's perf model. Two quantities are shared by
// every role: p, the prefill seconds of the cache-discounted prompt
// isl·(1 − hit rate), rounded and at least one token, plus the per-chunk
// overhead of a chunked flavor; and the decode operating point (B, t_d),
// the largest batch whose step time meets the TPOT target at the
// per-request KV footprint, with the batch capped by the KV capacity
// (maxDecodeBatch). Per role (TTFT′ and TPOT′ are the corrected targets
// below):
//
//	role          requests/s per replica   feasible when          KV footprint
//	mixed         B / (osl·t_d + B·p)      p ≤ TTFT′, t_d ≤ TPOT′  isl + osl/2
//	prefill-only  1 / p                    p + xfer(isl) ≤ TTFT′   —
//	decode-only   B / (osl·t_d)            t_d ≤ TPOT′             isl + osl
//
// A mixed engine serving λ requests/s under prefill-priority batching
// spends λ·p of each second prefilling and the rest decoding B requests per
// step, which gives its rate; its footprint is the time average of a
// request that holds between isl and isl + osl tokens. A decode-only pool's
// future-peak admission reserves each request's completion footprint, so it
// is priced at the peak. The KV transfer xfer ships the full prompt, cached
// blocks included, and footprints keep the full isl: a shared prefix saves
// memory only while its sharers overlap. An infeasible flavor prices at 0.
// A ChunkSLOAware flavor's chunk overhead is priced at
// ChunkConfig.ChunkTokens, a chunk size its sizer does not carve (it carves
// 128–4096 tokens from the deadline slack), so such a pool's prefill is
// priced at a chunk size the engine never uses.
//
// Correction factors. The targets are divided by two factors, TTFT′ =
// TTFT/c_ttft and TPOT′ = MTPOT/c_tpot. Each tick blends the observed mean
// TTFT and TPOT (MTPOT on a decode pool) of the interval's finishes over the
// values last predicted for the workhorse flavor — the first in cost order —
// into its factor, smoothed by a half and clamped to [0.25, 4]: a pool that
// runs 1.5× slower than interpolated (queueing, mixed batches) is sized
// against a 1.5× tighter target. The hit rate is smoothed the same way.
//
// Sizing. The flavors rank feasible first, then by cost per unit of
// throughput, then by cost; the demand fills them cheapest first, each
// flavor taking ⌈remaining/(λ·h)⌉ replicas up to its count and Max, with h
// Headroom (or, SpeedAware, the same absolute slack per request as the
// fastest flavor's). Every other addition goes through one helper, fill,
// in that order, each flavor up to its count: when the feasible capacity
// runs out the rest of the fleet up to Max, then up to Min, then Spare more
// replicas capped at Max (N+1 redundancy against crashes; spares are part
// of the standing target). Filling each flavor up to its room gives the
// same counts as adding one replica at a time.
//
// Scale-in patience. Scale-out is immediate: under-provisioning breaks the
// SLA, a spare replica only costs replica-seconds. A smaller target must be
// wanted scaleInPatience (2) ticks in a row, so that a one-interval lull or
// a noisy forecast at a phase boundary cannot flap the pool down just
// before load returns. The patience guards every per-flavor reduction, not
// just the total, since a cost-ranking flip at an equal total would
// otherwise drain a whole flavor at once while its replacement still pays
// ActivationDelay: while it holds, each shrinking flavor stays at its
// active count while increases elsewhere go out at once, trimmed most
// expensive first so the total stays within Max, and by the time it
// expires the replacement is warm. A tick whose interval shed demand or saw
// a crash resets it: refusing work shows the pool is not over-provisioned,
// and a crash dips the observed rate while demand stays.
//
// Ticks. A pool ticks every Interval while any engine is busy and re-arms
// on the next arrival or KV delivery. Once the arrival stream is exhausted,
// a tick that finds the run over — every engine idle at or before the
// tick, no KV transfer booked or waiting to retry, nothing held at
// admission — does nothing: no plan, no scaling, no PlanPoint, no re-arm.
// Each tick appends one PlanSample; its Active count is written once, after
// the targets are applied, and the recorder's PlanPoint reads Target and
// Active off it.
//
// # Replica lifecycle
//
// A replica is cold (not provisioned), waking (provisioned, its activation
// delay running), serving, or draining (scaled in while busy: no new
// traffic, cold once it holds no work and no KV transfer is on the wire
// toward it). A pool starts on its first replicas — all without an
// autoscaler, one under AutoScale, PlannerConfig.Min under a planner. A
// scale-out takes a draining replica back (to waking if its wake is still
// ahead) before it wakes a cold one. Down overlays the phase while a crashed
// replica is under repair, so that the repair knows whether it comes back:
// a cold one stays cold, a provisioned one wakes again, paying the
// activation delay; a draining one goes cold at the crash.
//
//	phase     billed  counted  accepting
//	cold      no      no       no
//	waking    yes     yes      no
//	serving   yes     yes      yes
//	draining  yes     no       no
//	down      no      no       no      (whatever the phase)
//
// Billed time is Pool.ReplicaSeconds (CostSeconds weights it by flavor
// cost), clipped to the span Cluster.Duration measures, so a fault or a
// tick after the last engine step bills nothing. Counted replicas are what
// the autoscalers size (ActiveReplicas). Accepting replicas are the routing
// candidates; when none accepts, the pool routes to the first provisioned
// replica that is up, and to a down one only when all are down.
// Pool.transition is the only writer of the phase and down, and it opens
// or closes the billed span and rebuilds the accepting set when those flip
// (TestPhaseSetOnlyHere).
package cluster
