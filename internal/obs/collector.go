package obs

import (
	"github.com/lightllm-go/lightllm/internal/request"
)

// stage is where a request's TTFT clock is currently charging.
type stage uint8

const (
	stHold    stage = iota // waiting in the cluster-front admission heap
	stQueue                // waiting in an engine queue
	stPrefill              // admitted, computing prompt tokens
	stWire                 // KV handoff on the transfer link
	stOutage               // progress destroyed or delivery deferred by a fault
	stPost                 // first token visible; TTFT closed (decode streaming)
	stDone                 // terminal outcome recorded
)

var stageNames = [...]string{"hold", "queue", "prefill", "wire", "outage", "post", "done"}

func (s stage) String() string { return stageNames[s] }

// seg is one contiguous interval a request spent in a single stage, for the
// Perfetto waterfall. The buckets in Span are the per-stage totals.
type seg struct {
	Stage      stage
	Start, End float64
}

// Span is one request's assembled lifecycle. Buckets partition the interval
// from arrival to the (final) first token exactly: every inter-event
// interval lands in exactly one bucket, so
//
//	Hold + Queue + Prefill + Wire + Outage == TTFTAt − R.ArrivalTime
//
// whenever TTFTAt ≥ 0 — the exact TTFT decomposition the exporters and the
// waterfall report rest on. Time after the first token (decode streaming)
// is not part of TTFT; it is tracked separately and folded into Outage only
// when a fault destroys the streamed progress and reopens the clock.
type Span struct {
	R *request.Request

	// Bucket totals, simulated seconds.
	Hold, Queue, Prefill, Wire, Outage float64
	// TTFTAt is the absolute time the (currently) visible first token
	// appeared; −1 while the TTFT clock is open.
	TTFTAt float64
	// Pool/Rep/Flavor identify the replica that last served the request
	// (−1/"" before any placement).
	Pool, Rep int
	Flavor    string
	// HeldOnce marks that admission control queued the request at least
	// once; Deliveries counts completed KV-transfer migrations.
	HeldOnce   bool
	Deliveries int
	// ShedWhere is the shed site ("" if never shed).
	ShedWhere string
	// Chunks counts the prefill chunks that landed for the request (0 when
	// chunked prefill is off or the prompt was fully cache-covered).
	Chunks int
	// Segs are the contiguous stage intervals, in time order.
	Segs []seg

	stage     stage
	lastAt    float64
	segStart  float64
	postAccum float64 // post-TTFT time, pending fold-or-discard
}

func newSpan(r *request.Request, at float64) *Span {
	return &Span{R: r, TTFTAt: -1, Pool: -1, Rep: -1, stage: stHold, lastAt: at, segStart: at}
}

// advance charges the interval since the last event to the current stage.
// Event times are not globally monotone per request (an engine's clock can
// run ahead of a cluster fault event), so regressions clamp to zero without
// rewinding: time already charged stays charged.
func (s *Span) advance(at float64) {
	if at <= s.lastAt {
		return
	}
	d := at - s.lastAt
	s.lastAt = at
	switch s.stage {
	case stHold:
		s.Hold += d
	case stQueue:
		s.Queue += d
	case stPrefill:
		s.Prefill += d
	case stWire:
		s.Wire += d
	case stOutage:
		s.Outage += d
	case stPost:
		s.postAccum += d
	}
}

// transition advances to at, closes the current stage segment, and enters
// the next stage. Leaving stPost for a live stage means a fault reopened
// the TTFT clock: the streamed progress was destroyed, so the post-TTFT
// time is folded into Outage (it is now part of the eventual TTFT).
// Leaving stPost for stDone discards the pending post time — it was decode
// streaming, not TTFT.
func (s *Span) transition(at float64, to stage) {
	s.advance(at)
	if s.stage == to {
		return
	}
	if s.lastAt > s.segStart {
		st := s.stage
		if st == stPost {
			if to == stDone {
				st = stDone // sentinel: drop the segment below
			} else {
				st = stOutage
			}
		}
		if st != stDone {
			s.Segs = append(s.Segs, seg{Stage: st, Start: s.segStart, End: s.lastAt})
		}
	}
	if s.stage == stPost && to != stDone {
		s.Outage += s.postAccum
		s.postAccum = 0
		s.TTFTAt = -1
	}
	s.stage = to
	s.segStart = s.lastAt
}

func (s *Span) terminal() bool { return s.stage == stDone }

// StageSum returns the bucket total — the left-hand side of the exact
// decomposition invariant.
func (s *Span) StageSum() float64 { return s.Hold + s.Queue + s.Prefill + s.Wire + s.Outage }

// TTFT returns the decomposed time to first token (−1 if the first token
// never became visible).
func (s *Span) TTFT() float64 {
	if s.TTFTAt < 0 {
		return -1
	}
	return s.TTFTAt - s.R.ArrivalTime
}

// iterSlice is one engine step, for the replica tracks.
type iterSlice struct {
	At, Dur   float64 // step end time and duration
	Pool, Rep int
	Kind      string
	Batch     int
	KVBytes   int64
	QueueLen  int
}

// instant is a point event on a replica track (crash, recover).
type instant struct {
	At        float64
	Pool, Rep int
	Name      string
}

// wireSpan is one booked KV transfer's wire occupancy.
type wireSpan struct {
	ReqID             int64
	FromPool, FromRep int
	ToPool, ToRep     int
	Bytes             int64
	BookAt            float64
	Start, Done       float64
}

// sample is one admission-heap depth observation.
type sample struct {
	At    float64
	Value int
}

// planPoint is one planner evaluation.
type planPoint struct {
	At             float64
	Pool           int
	Target, Active int
}

// Collector is the concrete Recorder: it assembles the event stream into
// per-request Spans, interval rollups, and the raw series the Perfetto
// exporter renders. Single-threaded, like everything the event loop owns.
type Collector struct {
	// Interval is the rollup bucket width in simulated seconds (0 ⇒ 1.0).
	Interval float64

	spans map[int64]*Span
	order []int64

	iters       []iterSlice
	instants    []instant
	wires       []wireSpan
	heldSamples []sample
	plans       []planPoint

	rows map[tsKey]*TSRow
}

// NewCollector builds a Collector with the given rollup interval
// (0 selects 1 second).
func NewCollector(interval float64) *Collector {
	if interval <= 0 {
		interval = 1.0
	}
	return &Collector{
		Interval: interval,
		spans:    map[int64]*Span{},
		rows:     map[tsKey]*TSRow{},
	}
}

var _ Recorder = (*Collector)(nil)

// span returns the request's span, creating one if an event arrives before
// its Arrive (defensive: engine-only wiring).
func (c *Collector) span(at float64, r *request.Request) *Span {
	s, ok := c.spans[r.ID]
	if !ok {
		s = newSpan(r, at)
		c.spans[r.ID] = s
		c.order = append(c.order, r.ID)
	}
	return s
}

// Spans returns the assembled spans in first-seen order.
func (c *Collector) Spans() []*Span {
	out := make([]*Span, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.spans[id])
	}
	return out
}

// Arrive implements Recorder.
func (c *Collector) Arrive(at float64, r *request.Request) {
	if s, ok := c.spans[r.ID]; !ok {
		c.span(at, r)
	} else if !s.terminal() {
		// Fault-recovery re-entry: the TTFT clock reopens and the request
		// waits at the front again.
		s.transition(at, stHold)
	}
	c.front(at).Arrivals++
}

// Hold implements Recorder.
func (c *Collector) Hold(at float64, r *request.Request, held int) {
	if s := c.span(at, r); !s.terminal() {
		s.advance(at)
		s.HeldOnce = true
	}
	c.heldSamples = append(c.heldSamples, sample{at, held})
	row := c.front(at)
	row.Holds++
	row.peakHeld(held)
}

// Release implements Recorder.
func (c *Collector) Release(at float64, r *request.Request, held int) {
	if s := c.span(at, r); !s.terminal() {
		s.advance(at)
	}
	c.heldSamples = append(c.heldSamples, sample{at, held})
	c.front(at).Releases++
}

// Place implements Recorder.
func (c *Collector) Place(at float64, r *request.Request, pool, rep int, flavor string) {
	s := c.span(at, r)
	if s.terminal() {
		return // re-placing a finished request: the pipeline never does this
	}
	s.Pool, s.Rep, s.Flavor = pool, rep, flavor
	if s.stage == stHold {
		s.transition(at, stQueue)
	} else {
		s.advance(at)
	}
	c.front(at).Places++
}

// Shed implements Recorder.
func (c *Collector) Shed(at float64, r *request.Request, where string) {
	s := c.span(at, r)
	s.transition(at, stDone)
	s.ShedWhere = where
	row := c.front(at)
	row.Sheds++
	switch where {
	case ShedBoundary:
		row.ShedBoundary++
	default:
		row.ShedFront++
	}
}

// Admit implements Recorder.
func (c *Collector) Admit(at float64, r *request.Request, pool, rep int) {
	s := c.span(at, r)
	if s.terminal() {
		return
	}
	s.Pool, s.Rep = pool, rep
	if s.stage == stHold || s.stage == stQueue {
		s.transition(at, stPrefill)
	} else {
		s.advance(at)
	}
}

// FirstToken implements Recorder.
func (c *Collector) FirstToken(at float64, r *request.Request, pool, rep int) {
	if s := c.span(at, r); !s.terminal() {
		s.Pool, s.Rep = pool, rep
		if s.TTFTAt < 0 {
			s.transition(at, stPost)
			s.TTFTAt = at
		} else {
			s.advance(at)
		}
	}
	c.pool(at, pool).FirstTokens++
}

// Evict implements Recorder.
func (c *Collector) Evict(at float64, r *request.Request, pool, rep int) {
	if s := c.span(at, r); !s.terminal() {
		if s.stage != stPost {
			// Pre-first-token eviction: back to the engine queue, still TTFT.
			s.transition(at, stQueue)
		} else {
			s.advance(at) // post-TTFT eviction: stays decode time
		}
	}
	c.pool(at, pool).Evictions++
}

// Drop implements Recorder.
func (c *Collector) Drop(at float64, r *request.Request, pool, rep int) {
	s := c.span(at, r)
	s.transition(at, stDone)
	c.pool(at, pool).Drops++
}

// Fail implements Recorder.
func (c *Collector) Fail(at float64, r *request.Request, pool, rep int) {
	s := c.span(at, r)
	s.transition(at, stDone)
	if pool >= 0 {
		c.pool(at, pool).Fails++
	} else {
		c.front(at).Fails++
	}
}

// Finish implements Recorder.
func (c *Collector) Finish(at float64, r *request.Request, pool, rep int) {
	if s := c.span(at, r); !s.terminal() {
		s.Pool, s.Rep = pool, rep
		s.transition(at, stDone)
	}
	c.pool(at, pool).Finishes++
}

// XferBook implements Recorder.
func (c *Collector) XferBook(at float64, r *request.Request, fromPool, fromRep, toPool, toRep int, bytes int64, start, done float64) {
	s := c.span(at, r)
	if !s.terminal() {
		s.transition(at, stWire)
	}
	c.wires = append(c.wires, wireSpan{
		ReqID: r.ID, FromPool: fromPool, FromRep: fromRep,
		ToPool: toPool, ToRep: toRep, Bytes: bytes,
		BookAt: at, Start: start, Done: done,
	})
	c.front(at).XferBooks++
}

// XferFail implements Recorder.
func (c *Collector) XferFail(at float64, r *request.Request, retryAt float64) {
	if s := c.span(at, r); !s.terminal() {
		s.transition(at, stOutage)
	}
	c.front(at).XferFails++
}

// XferDeliver implements Recorder.
func (c *Collector) XferDeliver(at float64, r *request.Request, pool, rep int) {
	if s := c.span(at, r); !s.terminal() {
		s.Pool, s.Rep = pool, rep
		s.transition(at, stPost)
		s.TTFTAt = at
		s.Deliveries++
	}
	c.front(at).XferDelivers++
}

// Crash implements Recorder.
func (c *Collector) Crash(at float64, pool, rep int, orphans int) {
	c.instants = append(c.instants, instant{at, pool, rep, "crash"})
	row := c.pool(at, pool)
	row.Crashes++
	row.Orphans += orphans
}

// Orphan implements Recorder.
func (c *Collector) Orphan(at float64, r *request.Request) {
	if s := c.span(at, r); !s.terminal() {
		s.transition(at, stOutage)
	}
}

// Recover implements Recorder.
func (c *Collector) Recover(at float64, pool, rep int) {
	c.instants = append(c.instants, instant{at, pool, rep, "recover"})
	c.pool(at, pool).Recoveries++
}

// Iteration implements Recorder.
func (c *Collector) Iteration(at float64, pool, rep int, kind string, dur float64, batch int, kvBytes int64, queueLen int) {
	c.iters = append(c.iters, iterSlice{
		At: at, Dur: dur, Pool: pool, Rep: rep, Kind: kind,
		Batch: batch, KVBytes: kvBytes, QueueLen: queueLen,
	})
	row := c.pool(at, pool)
	row.Iters++
	row.peakBatch(batch)
	row.peakQueue(queueLen)
	row.peakKV(kvBytes)
}

// PlanPoint implements Recorder.
func (c *Collector) PlanPoint(at float64, pool, target, active int) {
	c.plans = append(c.plans, planPoint{at, pool, target, active})
	row := c.pool(at, pool)
	row.Target, row.Active = target, active
	row.hasPlan = true
}

// Chunk implements Recorder: one prefill chunk landed. The span's prefill
// stage splits at the chunk boundary — each chunk becomes its own seg in
// the waterfall — while the bucket totals (and so the exact TTFT
// decomposition) are untouched: a chunk boundary is a sub-division of
// prefill time, not a new stage. Interval rows count chunks and tokens.
func (c *Collector) Chunk(at float64, r *request.Request, pool, rep int, tokens, done, total int) {
	if s := c.span(at, r); !s.terminal() {
		s.Chunks++
		if s.stage == stPrefill {
			// Close the running prefill segment at the chunk boundary so the
			// waterfall shows per-chunk bars; stay in stPrefill.
			s.advance(at)
			if s.lastAt > s.segStart {
				s.Segs = append(s.Segs, seg{Stage: stPrefill, Start: s.segStart, End: s.lastAt})
				s.segStart = s.lastAt
			}
		} else {
			s.advance(at)
		}
	}
	row := c.pool(at, pool)
	row.ChunkCount++
	row.ChunkTokens += int64(tokens)
}

// CacheEvent implements Recorder: prefix-cache token flows accumulate into
// the pool's interval row, from which the CSV derives the per-pool hit rate.
func (c *Collector) CacheEvent(at float64, pool, rep int, kind string, tokens int) {
	row := c.pool(at, pool)
	switch kind {
	case CacheHit:
		row.CacheHitTokens += int64(tokens)
	case CacheMiss:
		row.CacheMissTokens += int64(tokens)
	case CacheRestore:
		row.CacheRestoreTokens += int64(tokens)
	case CacheEvict:
		row.CacheEvictTokens += int64(tokens)
	}
}
