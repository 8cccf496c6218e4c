// Package core implements the paper's primary contribution: the Past-Future
// request scheduler (§3, Algorithm 1) and the baseline schedulers it is
// evaluated against (conservative, aggressive, and the theoretical-optimum
// oracle).
//
// A scheduler's only job is the admission decision of continuous batching:
// given the running batch, the KV-memory state, and the FCFS wait queue,
// decide how many requests from the head of the queue join the batch now.
//
//   - The conservative scheduler (§2.4; TGI, DeepSpeed-MII) reserves
//     input + max_new_tokens for every request — safe but wasteful.
//   - The aggressive scheduler (§2.4; vLLM) admits on current usage only —
//     high utilisation but frequent evictions once outputs grow.
//   - The Past-Future scheduler predicts output lengths from the recent
//     history window (the past) and computes the running batch's peak
//     memory at every future completion point (the future, Eq. 2–4),
//     admitting exactly when the peak stays under the reserve threshold.
//   - The oracle applies the same future-peak computation to the hidden
//     ground-truth lengths: the paper's "theoretical optimum".
//
// # Refusals at the knee
//
// An engine at its memory knee asks the admission gate the same question
// every step — does the queue's head fit under M*? — and the answer is
// mostly no: on engine-closed at seed 1, 86% of 222 847 admission rounds
// admit nothing. Each of them used to sort the whole batch first.
// PeakEstimator.Exceeds(cand, limit) answers PeakWith(cand) > limit
// exactly, and before it sorts it checks one term of Eq. 2–4 that needs no
// order: the last completion point of the batch with the candidate,
// ΣCurrent + (n+1)·min Remaining. Push keeps the sum and the minimum while
// it buffers, so the term is O(1); when it is over the limit, so is M*.
// PastFuture and Oracle gate with it. Of the 165 321 rounds that refuse
// the head on M* at seed 1, the term settles 159 630 (96.6%); every
// decision, RNG draw and prediction is unchanged. The term only runs while
// every Current fits 32 bits, because PeakWith adds the candidate's Current after taking its maximum and a sum
// that wraps there could fall below the term. Remaining cannot make a sum
// wrap: the estimator and the reference FutureRequiredMemory clamp it at
// 2^31−1 (no pool holds that many tokens), so (n+1)·Remaining stays under
// 2^61 while n < 2^30. Before the clamp a cold-start cap near 2^62 (a
// direct engine caller's max_new_tokens) could wrap M* to 0 and admit.
//
// Ten alternating parent/change pairs of engine-closed, 15 s runs on a
// 2-core host, seeds 41–50: 45.6k requests/s (quartiles 43.0–49.1k) →
// 64.2k (61.8–67.6k), median ratio ×1.40, the change ahead in 10 of 10,
// every simulated metric equal. The traced run's core.admit_ns_per_call
// went from 3.0 µs to 1.2 µs. PeakEstimator.flush fell from 42% to 18%
// of host time, and about half of what was left was the engine's own sort
// of the true M* after each admission, which serving engines no longer do
// (the core.MStarObserver below). replay-day, storm-product and
// serve-http stay flat: their rounds mostly admit. The micro row is
// BenchmarkAdmitHotPath/refuse-drawn: 48 running requests at the knee, the
// head refused by the term in ~1.3 µs and 0 allocs.
//
// Most refusals need no drawn length at all. Algorithm 1 resamples every
// running request's length from P(l > generated) before it asks whether the
// head fits, yet at the knee the batch's landed KV plus the head's prompt is
// usually over the threshold already. Outside cold start every prediction
// leaves at least one token to come, so ΣKVLanded + the head's footprint +
// (n+1) is a floor under the term above, and so under M*. PastFuture.Admit
// first makes one pass over the batch that sums the landed KV. When the
// floor is over the threshold, it refuses, counts the draws predict would
// have made (draws, which mirrors what predict takes: a value per sample
// that finds mass), and advances the generator by that count (rng.Skip, the
// state kept in registers). Every later draw, decision and report is
// byte-identical. On
// engine-closed, 178 100 of 222 847 rounds end there at seed 1 (80%), and
// 191 309 of 237 206 at seed 7. Such a round writes no PredictedLen. Only
// NoResample reads it back, and a kept prediction comes back as
// max(PredictedLen, Generated+1) either way. The pass declines in cold start
// (the cap has no floor of 1), outside Exceeds' no-wrap range, and when a
// NoResample request would draw a prediction that a later round keeps.
//
// Ten alternating parent/change pairs of 15 s runs on a 2-core host: at
// seed 1, 67.1k requests/s (quartiles 57.3–71.6k) → 84.5k (73.0–90.9k),
// ×1.26, the change ahead in 9 of 10; at seed 7, 60.7k (54.8–66.0k) → 75.4k
// (62.1–77.3k), ×1.24, ahead in 9 of 10. Every simulated metric is
// unchanged, core.admit_calls is still 222 847 at seed 1, and
// core.admit_ns_per_call fell from 1.67 µs to 1.10 µs. PastFuture.Admit
// is 39% of host time, down from 52% on the same host. The micro row is
// BenchmarkAdmitHotPath/refuse, this round in deterministic mode: ~0.14 µs,
// 0 allocs.
//
// Most of those refusals repeat one another. Between two rounds of a run of
// pure decode steps the batch keeps its members, each of them a few tokens
// further on, and the floor only grows; what could change is how many values
// the round would draw, since a request stops drawing once its generated
// count reaches the window's longest observation. core.View.Epoch names
// such a run: the engine starts it at 1 and moves it on before any step that
// follows one which was not a pure decode step, and on a crash (0, what
// fig56.go and the tests send, promises nothing). A refusal before drawing
// leaves a certificate — Epoch, head, batch size, window and generation,
// threshold, multi-sampling, the draw count, an OR bound on the landed values
// and the smallest gap between a drawing request's Generated and the
// window's maximum. A later round of the same Epoch that matches it, and
// whose batch advanced by less than that gap, refuses in O(1) and skips the
// same number of draws (repeatRefusal); any doubt — a gap crossed, the
// no-wrap bound — sends it through the full pass.
// FuzzRefusalCertificate holds it to an Epoch-blind twin round by round:
// decisions, predictions, undrawn and the generator's next value. On
// engine-closed the certificate settles 170 232 of 222 847 rounds at seed 1
// (76.4%; 95.6% of the refusals before drawing) and 182 560 of 237 206 at
// seed 7 (77.0%). The rounds that draw sort about 50 entries, and so does
// an attached core.MStarObserver's true M* after each admission: above 48
// entries flush now radix-sorts by the significant bytes of Remaining (one
// to four passes,
// the bits shared evenly between them, one reused scratch slice) instead of
// a comparison sort of packed keys. And a finished request's Window.Add
// moves a two-level rank index — in-block counts of 64-value blocks and
// the blocks' bases — instead of every count between the old and new value.
//
// Ten alternating parent/change pairs of 15 s runs on a 2-core host: at
// seed 1, 79.1k requests/s (quartiles 70.3–83.2k) → 104.4k (97.6–109.5k),
// ×1.32, the change ahead in 10 of 10; at seed 7, 65.7k (62.1–67.8k) →
// 90.4k (87.2–100.6k), ×1.38, ahead in 10 of 10 (BENCH_pairs.jsonl keeps
// every run's line). Every simulated metric and core.admit_calls (222 847
// at seed 1) are unchanged. replay-day and serve-http stay flat over ten
// pairs (×1.01, ×0.96); storm-product's four runs on the same busy host
// range from ×0.91 to ×1.04 with no consistent direction. PastFuture.Admit
// is 31% of host time, down from 39% at the parent in the same profile:
// refusedUndrawn 10% → 6%, the sort under flush 19% → 9%, Window.Add
// 6% → 4.5%. The micro rows are BenchmarkAdmitHotPath/refuse-repeat
// (~15 ns, 0 allocs), /admit-wide and BenchmarkWindowSampler/add-long.
//
// A repeat still cost its caller a round: a coasting engine handed the batch
// its owed tokens, copied the queue and built a View before Admit could say
// no. RepeatRefuser is the optional method that asks first. RefusesAgain
// takes what a repeat needs and what the engine reads in O(1) — the Epoch,
// the head, the batch's and the queue's lengths, the window, the capacity
// and the lead request's Generated — and answers through repeatRefusal, the
// same test Admit makes, so there is one certificate check and one RNG skip.
// Conservative implements it too, from its last refusal of the head on the
// budget, which no decoding can change. On engine-closed at seed 1, 167 422
// of the 170 232 repeats end there (179 309 of 182 560 at seed 7); the rest
// come on the per-token path, where the engine builds a View anyway, and end
// inside Admit. PastFuture counts its rounds by exit (Exits: repeat asked or
// in Admit, refused or admitted before drawing, priced admission or
// refusal), a host-free witness of the work; TestKneeRoundExitsPinned pins
// the counts of a small Fig. 7 knee.
//
// What is left is the 44 747 priced rounds (26 524 admit, 18 223 refuse), and
// they paid for more than their draws. walk counted the draws of every
// running request for exits the round did not take; now only an exit that
// skips the generator counts them (drawCount). predict derived the count
// again before drawing; now it draws once and lets the sampler say whether
// any mass is left (clampPrediction folds it). And the gate built three
// aggregate arrays, O(n) each, to answer one question: now flush only
// sorts, Exceeds answers in one forward pass over the sorted entries
// (scanExceeds: the completion points ahead of the candidate, its own, then
// the ones behind it one step later and holding its Current — the same
// integer operations PeakWith makes), a Push into an estimator without
// aggregates only splices, and Peak takes its maximum in the same kind of
// pass. Terms and PeakWith build the aggregates on first need, so the
// cluster's probes and their memo are unchanged. Two ideas measured slower
// in prototypes and were left out: a bucketed M* sketch with per-bucket
// bounds, and a top-6-bit counting sort followed by an insertion pass. The
// sort's parameters stay as they were: the knee sorts 44–50 entries, and 4 309 of 32 215
// sorts at seed 1 fall in 33–48, where insertion takes ~0.74–0.88 µs and
// radix ~0.58 µs on random order; moving insertionSortMax to 32 saves about
// 1 ms of a 150 ms replay while storm-product's 4 718 sorts there come from
// cluster probes pushed nearly in order, where insertion is the cheaper sort.
// Digits of 4, 5, 7 and 8 bits measured alike within the host's spread.
// insertionSortMax stays 48 and the digit at most 8 bits.
//
// A floor tighter than refusedUndrawn's that still needs no draw — each
// running request priced at the smallest window value above its Generated —
// refused 0 of the 18 223 priced refusals at seed 1 in an instrumented copy:
// the priced refusals are decided by the drawn lengths, not by the landed
// KV.
//
// Ten alternating parent/change pairs of 15 s runs on a 2-core host: at
// seed 1, 172.7k requests/s (quartiles 171.4–174.9k) → 214.2k
// (211.8–217.0k), ×1.24, the change ahead in 10 of 10; at seed 7, 176.4k
// (172.3–177.9k) → 219.4k (215.2–222.4k), ×1.24, ahead in 10 of 10; a
// second series at each seed read ×1.27 and ×1.26, 10 of 10. Every
// simulated metric is unchanged, and replay-day, storm-product and
// serve-http stay within their bounds (×0.95 to ×1.01). In three CPU
// profiles of thirteen replays each, PastFuture.Admit with RefusesAgain
// fell from 4.25 s to 3.40 s of samples; the engine's own part of a round
// (hand-out, queue copy, View) from 0.57 s to 0.19 s. The micro rows, parent
// and change back to back: BenchmarkAdmitHotPath/admit-wide 4.6–6.9 µs →
// 2.0–2.2 µs, /refuse-drawn 0.91–1.03 µs → 0.76–0.79 µs, and
// internal/engine's BenchmarkEngineDecodeLong/queued, whose Conservative
// refusals now end in RefusesAgain, 0.53–0.56 ms → 0.19–0.23 ms.
//
// # Admission before drawing
//
// Below the knee the mirror case holds: a ceiling over M*. predict never
// returns more than max_new_tokens nor less than Generated+1, so no entry's
// Remaining is above its conservative one, max(max_new_tokens − generated,
// 1), plus the unprefilled prompt tail for a running request; and M* of
// non-negative entries is at most Σ(Current + Remaining). The pass over the
// batch that sums the floor also sums that conservative budget. Admit then
// walks the queue FCFS under the same FreeTokens rule as the priced loop,
// adding each candidate's footprint and conservative length; when the
// ceiling stays at or under the threshold up to where the rule stops the
// prefix, or to the queue's end, every possible draw admits that prefix,
// and Admit returns it without drawing, skipping the generator past the
// draws the priced round would have made — the batch's and every candidate's
// the loop reaches, the one the rule stops included (admittedUndrawn). Such
// a round writes no PredictedLen and leaves PredictedPeak at 0, so it runs
// only when the caller promises that nobody reads either (View.Unobserved,
// which the engine sets when it has no admit hook), never under NoResample,
// and only inside Exceeds' no-wrap range. Attaching any admit hook — an
// MStarObserver, the planner's prefix-cache hook — puts every round of that
// engine back on the priced path.
//
// At seed 1 it settles 63 287 of replay-day's 80 202 rounds that draw (79%),
// 60 512 of storm-product's 60 519 (its prefill replicas, which carry the
// planner's admit hook, run the aggressive scheduler), every one of
// serve-http's (19 703 in one run) and none of engine-closed's, whose rounds
// sit at the knee. In a CPU profile of twelve replay-day replays,
// PastFuture.Admit fell from 12.9% to 6.5% of host time (1.74 s → 0.79 s).
// Ten alternating pairs of 15 s runs on a 2-core host, measured together
// with Cluster.catchUp passing over replicas that have no step due: on
// replay-day at seed 1, 143.8k requests/s (quartiles 138.5–151.5k) → 171.6k
// (160.5–182.7k), ×1.19, ahead in 9 of 10; at seed 7, 162.5k (155.9–166.7k)
// → 177.8k (169.8–181.5k), ×1.10, ahead in 9 of 10. Every simulated metric
// is unchanged. At seed 1 serve-http went ×1.09 (ahead in 10 of 10) and
// storm-product ×1.07 (7 of 10). engine-closed, none of whose rounds takes
// the exit, read ×0.91 (3 of 10), ×0.82 (0 of 10) and ×0.99 (4 of 10) in
// three series on a host whose runs spread by ±20%, and two sets of 25
// alternating in-process replays put it 3% and 6% behind the parent; the
// ceiling's sum costs the walk ~50 ns a round at 48 requests. The micro
// row is BenchmarkAdmitHotPath/admit-light: a warm 16-request batch and one
// candidate that the budget clears, ~0.1 µs, 0 allocs.
//
// The same gate reports how good its prediction was. PastFuture and Oracle
// write the M* of the batch they admitted into core.View.PredictedPeak, and
// the engine hands it, with the batch
// before admission and the admitted requests, to its admit hooks
// (core.AdmitRound). A core.MStarObserver attached there
// (eng.AddAdmitHook(o.Observe)) holds it against the true M* from the
// requests' real lengths whenever the engine kept the whole admitted prefix:
// the mean and largest |predicted − true| ÷ true, the share of rounds that
// predicted too little, the round count, and p50/p95/p99 of the signed
// (true − predicted) ÷ predicted from a fixed-bucket log histogram
// (stats.LogHistogram). It also owns Table 1's "Future Required Memory".
// pfsim's Table 1 and Fig. 1 and the tests attach one; a serving engine
// attaches none and computes no true M* at all. The oracle's error is
// exactly 0 on an unchunked engine (a tier-1 test). On engine-closed at
// seed 1, Past-Future's was 4.2% on average over 26 524 rounds, at most
// 32.9%, and 58.8% of those rounds predicted too little. The 5% reserve
// absorbs most of that: 4.8% of requests are evicted at least once.
//
// Given a second PastFuture as its control, the observer predicts each
// compared batch again from that scheduler's own RNG stream, by the same
// window and rules. On Table 1's setting (1000 requests, reserve 5%, seeds
// 1–2) the control under-predicts 48–53% of rounds and the scheduler 68–78%:
// the scheduler only admits on rounds whose draw fitted, so its admitted
// rounds are the low draws (TestWinnersCurse).
package core
