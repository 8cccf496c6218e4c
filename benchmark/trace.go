package main

import (
	"encoding/json"
	"os"
	"time"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
)

// layer is where a stretch of host time is charged.
type layer int

const (
	layerOther  layer = iota // event heap, link, planner, fault handling, loop overhead
	layerNext                // workload: the arrival stream's Next
	layerRoute               // cluster: probes and the admission decision for one arrival
	layerAdmit               // core: Scheduler.Admit
	layerEngine              // engine: a step's own work outside Admit
	numLayers
)

var layerNames = [numLayers]string{"cluster.other", "workload.next", "cluster.route", "core.admit", "engine.step"}

// maxSpanRequests bounds the spans kept for the trace file: the first this
// many requests, and this many request-less spans (engine steps) per kind.
// Aggregates always cover every span.
const maxSpanRequests = 20_000

// span is one timed stretch at a layer boundary, on the host clock in
// nanoseconds since the traced replay began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
	Req    int64  `json:"request_id,omitempty"`
}

// tracer measures the layers from the benchmark's side of the program's
// public calls. Host time is cut into consecutive segments at every
// boundary the benchmark can see — the wrapped arrival stream, the
// scheduler decorator, the benchmark's own step loop, each recorder
// callback — and a segment is charged to the layer its closing boundary
// belongs to. It is a strict observer: it reads the host clock and the
// arguments it is handed, and changes nothing.
//
// Not safe for concurrent use: the simulators call it from one goroutine,
// and serve-http guards it with the server's own lock (every boundary there
// fires inside an engine step).
type tracer struct {
	// root names the call the replay times, the parent of top-level spans;
	// admission says arrivals pass through cluster-front admission, which
	// emits Arrive before it routes — the direct route emits it after. The
	// workload sets both before the call.
	root      string
	admission bool

	began     time.Time
	last      time.Time
	seg       [numLayers]time.Duration
	spans     []span
	stepSpans int  // engine-step spans kept so far; they carry no request
	ownLoop   bool // engine-closed: the benchmark's own loop calls Step

	callbacks int64 // recorder callbacks received

	// Scheduler decorator counters.
	admitCalls, admitted   int64
	queueLenSum, runLenSum int64

	nextCalls  int64
	routeCalls int64

	// Recorder-fed counters, all on the simulated clock.
	held        int64
	holdAt      map[int64]float64
	holdWaits   []float64
	queueWaits  []float64
	linkWaits   []float64
	linkBytes   int64
	iters       int64
	itersByKind map[string]int64
	busySim     float64
	batchHist   []int64 // iterations by running batch size
	chunkTokens int64
	chunkCount  int64
}

func newTracer() *tracer {
	return &tracer{holdAt: map[int64]float64{}, itersByKind: map[string]int64{}}
}

// begin names the call about to be timed and starts the segment clock; host
// time before it is set-up.
func (t *tracer) begin(root string) {
	t.root = root
	t.began = time.Now()
	t.last = t.began
}

// mark closes the current segment, charging it to l, and returns its bounds
// in nanoseconds since begin.
func (t *tracer) mark(l layer) (start, end int64) {
	now := time.Now()
	start, end = int64(t.last.Sub(t.began)), int64(now.Sub(t.began))
	t.seg[l] += now.Sub(t.last)
	t.last = now
	return start, end
}

// keep records one span of layer l if it belongs to one of the first
// maxSpanRequests requests.
func (t *tracer) keep(l layer, start, end int64, parent string, req int64) {
	if req < 1 || req > maxSpanRequests {
		return
	}
	t.spans = append(t.spans, span{Name: layerNames[l], Start: start, End: end, Parent: parent, Req: req})
}

// seconds returns the host seconds charged to l.
func (t *tracer) seconds(l layer) float64 { return t.seg[l].Seconds() }

// wrapNext times the arrival stream.
func (t *tracer) wrapNext(next func() *request.Request) func() *request.Request {
	return func() *request.Request {
		t.mark(layerOther)
		r := next()
		s, e := t.mark(layerNext)
		t.nextCalls++
		if r != nil {
			t.keep(layerNext, s, e, t.root, r.ID)
		}
		return r
	}
}

// step runs one engine step from the benchmark's own loop and times it.
func (t *tracer) step(do func() bool) bool {
	t.mark(layerOther)
	t.ownLoop = true
	ok := do()
	s, e := t.mark(layerEngine)
	if t.stepSpans < maxSpanRequests {
		t.stepSpans++
		t.spans = append(t.spans, span{Name: layerNames[layerEngine], Start: s, End: e, Parent: t.root})
	}
	return ok
}

// timedScheduler decorates one replica's scheduler with the tracer's clock.
type timedScheduler struct {
	core.Scheduler
	t *tracer
}

// Admit implements core.Scheduler.
func (s timedScheduler) Admit(v *core.View, queue []*request.Request) int {
	t := s.t
	t.mark(layerEngine) // a step's preamble: arrivals moved, timeouts dropped
	n := s.Scheduler.Admit(v, queue)
	st, en := t.mark(layerAdmit)
	t.admitCalls++
	t.admitted += int64(n)
	t.queueLenSum += int64(len(queue))
	t.runLenSum += int64(len(v.Running))
	if len(queue) > 0 {
		parent := t.root
		if t.ownLoop {
			parent = layerNames[layerEngine] // the benchmark's own step span encloses it
		}
		t.keep(layerAdmit, st, en, parent, queue[0].ID) // the span names the queue's head
	}
	return n
}

// wrap decorates a scheduler when tracing, and returns it unchanged when not.
func (t *tracer) wrap(s core.Scheduler) core.Scheduler {
	if t == nil {
		return s
	}
	return timedScheduler{Scheduler: s, t: t}
}

// recorder returns the tracer as the program's obs.Recorder, or a nil
// interface when not tracing, so untraced replays keep every emission site
// on its nil check.
func (t *tracer) recorder() obs.Recorder {
	if t == nil {
		return nil
	}
	return t
}

// cb stamps one recorder callback.
func (t *tracer) cb(l layer) (start, end int64) {
	t.callbacks++
	return t.mark(l)
}

// routed stamps a routing decision for one request.
func (t *tracer) routed(r *request.Request) {
	s, e := t.cb(layerRoute)
	t.routeCalls++
	t.keep(layerRoute, s, e, t.root, r.ID)
}

// The obs.Recorder implementation. Each method stamps the host clock; the
// few that carry a per-layer count also keep it.

func (t *tracer) Arrive(at float64, r *request.Request) {
	if t.admission {
		t.cb(layerOther)
		return
	}
	// The direct route emits Arrive after it has probed every replica and
	// submitted: the segment it closes is the routing.
	t.routed(r)
}

func (t *tracer) Hold(at float64, r *request.Request, held int) {
	t.routed(r)
	t.held++
	t.holdAt[r.ID] = at
}

func (t *tracer) Release(at float64, r *request.Request, held int) {
	t.cb(layerRoute)
	t.endHold(at, r)
}

// endHold closes a held request's wait at the cluster front, if it had one.
func (t *tracer) endHold(at float64, r *request.Request) {
	if since, ok := t.holdAt[r.ID]; ok {
		t.holdWaits = append(t.holdWaits, at-since)
		delete(t.holdAt, r.ID)
	}
}

func (t *tracer) Place(at float64, r *request.Request, pool, rep int, flavor string) {
	if t.admission {
		t.routed(r)
		return
	}
	t.cb(layerRoute) // the direct route's decision was stamped at Arrive
}

func (t *tracer) Shed(at float64, r *request.Request, where string) {
	t.routed(r)
	t.endHold(at, r)
}

func (t *tracer) Admit(at float64, r *request.Request, pool, rep int) {
	t.cb(layerEngine)
	if r.Admissions == 1 && !r.Migrated {
		t.queueWaits = append(t.queueWaits, at-r.ArrivalTime)
	}
}

func (t *tracer) FirstToken(at float64, r *request.Request, pool, rep int) { t.cb(layerEngine) }
func (t *tracer) Evict(at float64, r *request.Request, pool, rep int)      { t.cb(layerEngine) }
func (t *tracer) Drop(at float64, r *request.Request, pool, rep int)       { t.cb(layerEngine) }
func (t *tracer) Fail(at float64, r *request.Request, pool, rep int)       { t.cb(layerEngine) }
func (t *tracer) Finish(at float64, r *request.Request, pool, rep int)     { t.cb(layerEngine) }

func (t *tracer) XferBook(at float64, r *request.Request, fromPool, fromRep, toPool, toRep int, bytes int64, start, done float64) {
	t.cb(layerOther)
	t.linkWaits = append(t.linkWaits, start-at)
	t.linkBytes += bytes
}

func (t *tracer) XferFail(at float64, r *request.Request, retryAt float64)  { t.cb(layerOther) }
func (t *tracer) XferDeliver(at float64, r *request.Request, pool, rep int) { t.cb(layerOther) }
func (t *tracer) Crash(at float64, pool, rep int, orphans int)              { t.cb(layerOther) }
func (t *tracer) Orphan(at float64, r *request.Request)                     { t.cb(layerOther) }
func (t *tracer) Recover(at float64, pool, rep int)                         { t.cb(layerOther) }
func (t *tracer) PlanPoint(at float64, pool, target, active int)            { t.cb(layerOther) }

func (t *tracer) Iteration(at float64, pool, rep int, kind string, dur float64, batch int, kvBytes int64, queueLen int) {
	t.cb(layerEngine)
	t.iters++
	t.itersByKind[kind]++
	t.busySim += dur
	for batch >= len(t.batchHist) {
		t.batchHist = append(t.batchHist, 0)
	}
	t.batchHist[batch]++
}

func (t *tracer) CacheEvent(at float64, pool, rep int, kind string, tokens int) { t.cb(layerEngine) }

func (t *tracer) Chunk(at float64, r *request.Request, pool, rep int, tokens, done, total int) {
	t.cb(layerEngine)
	t.chunkCount++
	t.chunkTokens += int64(tokens)
}

// batchStats returns the mean and the 99th percentile of the running batch
// size over every iteration.
func (t *tracer) batchStats() (mean, p99 float64) {
	if t.iters == 0 {
		return 0, 0
	}
	var sum, cum int64
	target := (t.iters*99 + 99) / 100
	p99set := false
	for size, n := range t.batchHist {
		sum += int64(size) * n
		cum += n
		if !p99set && cum >= target {
			p99, p99set = float64(size), true
		}
	}
	return float64(sum) / float64(t.iters), p99
}

// writeTrace writes the kept spans and the aggregates over all of them.
func writeTrace(path string, t *tracer, aggregates map[string]float64) error {
	layers := map[string]float64{}
	for l, name := range layerNames {
		layers[name+"_s"] = t.seg[l].Seconds()
	}
	data, err := json.Marshal(struct {
		Root       string             `json:"root"`
		HostLayers map[string]float64 `json:"host_seconds_by_layer"`
		Aggregates map[string]float64 `json:"aggregates"`
		Spans      []span             `json:"spans"`
	}{t.root, layers, aggregates, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
