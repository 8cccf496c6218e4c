// Package server exposes the serving engine over HTTP as a live,
// streaming generate API — the LightLLM-style frontend of this
// reproduction. The engine's simulated GPU iterations are paced against
// wall-clock time (configurable timescale), so the server behaves like a
// real deployment: requests queue, batch continuously, stream tokens, and
// are subject to the Past-Future scheduler's admission decisions.
//
// Endpoints:
//
//	POST /v1/generate  {"input_tokens":N, "max_new_tokens":M,
//	                    "output_tokens":K (optional; simulated EOS point),
//	                    "stream":bool}
//	GET  /v1/status    engine state (clock, queue, batch, KV occupancy)
//	GET  /healthz      liveness
//
// # Wire format
//
// A plain reply is one JSON object and a newline (application/json):
//
//	{"id":7,"output_tokens":20,"ttft":0.031,"tpot":0.012,"mtpot":0.013,
//	 "latency":0.27,"evictions":0,"status":"ok"}
//
// with status "ok", "dropped" (queue timeout) or "failed" (the scheduler can
// never admit it); the SLA metrics are on the simulated clock. A streamed
// reply (application/x-ndjson) is one line per token, keys in this order,
//
//	{"id":7,"t":0.031,"token":1}
//
// where t is the simulated time the token left the engine, followed by the
// same summary object as its last line. Both kinds of line are appended with
// strconv into one buffer and are byte for byte what encoding/json writes
// for the same values.
//
// # Reading the body
//
// A POST /v1/generate body has one read path: the handler takes its mailbox
// from the pool first and reads the body, through http.MaxBytesReader, into
// the mailbox's buffer, which the pool keeps for the next request unless it
// grew past 64 KiB. A body in the canonical shape — one object whose keys
// are the four names above in exact case, integers of at most 18 digits,
// true or false, JSON whitespace — is decoded in place without allocating;
// every other body goes to json.Unmarshal, so each body gets the status
// code and the 400 text it would get from json.Unmarshal alone. A reply's
// Content-Type is one of two shared one-element slices, assigned to the
// header map rather than set per request: net/http clones the map when the
// header is written, so nothing writes into them.
//
// # Drain, then flush
//
// The engine's token and exit hooks run inside a step, under the server's
// lock; each appends an event to the request's mailbox — a token, or the
// one evEnd that closes the reply, its status read from the request's
// outcome — and raises a capacity-1 wake signal, so a hook never blocks and
// nothing is sized by max_new_tokens. The handler wakes, takes every event
// that is in the mailbox at that moment, encodes them into one buffer and
// issues one Write and, for a stream, one Flush unless the Write carries the
// summary line: net/http flushes that last one, with the chunk terminator,
// when the handler returns. It never waits for a batch to fill: a
// token that is alone in the mailbox leaves alone, so with Timescale > 0,
// where the driver sleeps between steps, each token goes out as its step
// ends and the time to first token on the wire is what it was with a flush
// per token. Only tokens the engine produced while the handler was busy
// writing share a write — with Timescale 0 that is most of a reply. Several
// lines may therefore arrive in one TCP segment; clients count lines, not
// reads.
//
// # Limits and status codes
//
//	405  /v1/generate with a method other than POST
//	413  body over 1 MiB
//	400  body that is not exactly one JSON object of the shape above,
//	     input_tokens < 1, or input_tokens or max_new_tokens above the KV
//	     pool's capacity in tokens (no schedule could ever hold them)
//	200  everything else; the outcome is the summary's status
//
// When the client goes away the handler unsubscribes and returns; the
// request itself runs on in the engine until it finishes (ROADMAP 5(d):
// engine.Cancel).
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// maxBodyBytes bounds a POST /v1/generate body.
const maxBodyBytes = 1 << 20

// maxKeptBody is the largest body buffer a recycled mailbox keeps: the
// canonical body is ~70 bytes, and a rare large one should not pin its
// buffer in the pool.
const maxKeptBody = 64 << 10

// Config configures a Server.
type Config struct {
	// Engine is the serving engine (required). The server takes ownership:
	// all access goes through the server's lock.
	Engine *engine.Engine
	// Timescale is simulated seconds advanced per wall-clock second.
	// 1.0 = real time; 0 = as fast as possible (tests, batch replay).
	Timescale float64
	// Seed drives the fallback output-length sampler for requests that do
	// not specify output_tokens.
	Seed uint64
	// DefaultMaxNew caps outputs when the client omits max_new_tokens.
	// 0 selects 2048, or the KV pool's capacity in tokens if that is
	// smaller; a negative value or one above the capacity is an error, as
	// an explicit max_new_tokens above it is a 400.
	DefaultMaxNew int
}

// Server is the HTTP frontend. Create with New, start the engine driver
// with Run (usually in a goroutine), and serve Handler.
type Server struct {
	mu    sync.Mutex
	cond  *sync.Cond
	eng   *engine.Engine
	r     *rng.RNG
	subs  map[int64]*mailbox
	next  int64
	close bool

	timescale     float64
	defaultMaxNew int
	capacity      int // KV pool size in tokens; fixed for the engine's life
}

type eventKind uint8

const (
	evToken eventKind = iota
	evEnd             // the request left the engine: its reply is complete
)

// status is the summary's status field for a request's outcome.
func status(o request.Outcome) string {
	switch o {
	case request.OutcomeDropped:
		return "dropped"
	case request.OutcomeFailed:
		return "failed"
	}
	return "ok"
}

type event struct {
	kind  eventKind
	index int     // of a token within its reply, from 1
	t     float64 // simulated time a token left the engine
}

// mailbox is one request's subscription: the engine hooks append to events
// under s.mu and raise wake; the handler swaps events out under s.mu.
type mailbox struct {
	events []event
	wake   chan struct{} // capacity 1: "events is not empty"
	tokens bool          // false: deliver evEnd only

	// The handler's own scratch. It lives here so that a recycled mailbox
	// brings its grown buffers to the next request.
	body  bytes.Buffer // the request body, read before the mailbox subscribes
	taken []event      // the batch being written; swapped with events by take
	buf   []byte       // the encoded lines of that batch
}

// mailboxes recycles mailboxes between requests. A handler returns its
// mailbox only once no hook can reach it: after evEnd or an unsubscribe,
// both of which remove it from subs under s.mu.
var mailboxes = sync.Pool{New: func() interface{} {
	return &mailbox{wake: make(chan struct{}, 1)}
}}

// recycle empties the mailbox and hands it to the next request.
func (mb *mailbox) recycle() {
	mb.events = mb.events[:0]
	mb.body.Reset()
	if mb.body.Cap() > maxKeptBody {
		mb.body = bytes.Buffer{}
	}
	select {
	case <-mb.wake: // raised by an event a previous take already carried off
	default:
	}
	mailboxes.Put(mb)
}

// New validates the config and wires the engine hooks.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: engine is required")
	}
	if cfg.Timescale < 0 {
		return nil, fmt.Errorf("server: negative timescale")
	}
	capacity := cfg.Engine.Pool().CapacityTokens()
	switch {
	case cfg.DefaultMaxNew < 0 || cfg.DefaultMaxNew > capacity:
		return nil, fmt.Errorf("server: default max_new_tokens %d is negative or above the KV capacity of %d tokens", cfg.DefaultMaxNew, capacity)
	case cfg.DefaultMaxNew == 0:
		cfg.DefaultMaxNew = 2048
		if capacity < cfg.DefaultMaxNew {
			cfg.DefaultMaxNew = capacity
		}
	}
	s := &Server{
		eng:           cfg.Engine,
		r:             rng.New(cfg.Seed),
		subs:          map[int64]*mailbox{},
		timescale:     cfg.Timescale,
		defaultMaxNew: cfg.DefaultMaxNew,
		capacity:      capacity,
	}
	s.cond = sync.NewCond(&s.mu)
	s.eng.AddTokenHook(func(now float64, r *request.Request) {
		s.notify(r.ID, event{kind: evToken, index: r.Generated, t: now})
	})
	s.eng.AddExitHook(func(_ float64, r *request.Request) {
		s.notify(r.ID, event{kind: evEnd})
	})
	return s, nil
}

// notify appends an event to the request's mailbox, if it still has one, and
// wakes its handler. Called with s.mu held (hooks fire inside engine steps,
// which run under the lock); it never blocks.
func (s *Server) notify(id int64, ev event) {
	mb, ok := s.subs[id]
	if !ok {
		return
	}
	if ev.kind == evToken {
		if !mb.tokens {
			return
		}
	} else {
		delete(s.subs, id)
	}
	mb.events = append(mb.events, ev)
	select {
	case mb.wake <- struct{}{}:
	default: // already raised; the handler takes everything when it runs
	}
}

// Run drives the engine until Close: it executes engine steps while work
// exists, sleeping simulated durations scaled by the timescale, and blocks
// while idle.
func (s *Server) Run() {
	for {
		s.mu.Lock()
		for s.eng.Idle() && !s.close {
			s.cond.Wait()
		}
		if s.close {
			s.mu.Unlock()
			return
		}
		before := s.eng.Clock()
		s.eng.Step()
		dt := s.eng.Clock() - before
		s.mu.Unlock()
		if s.timescale > 0 && dt > 0 {
			time.Sleep(time.Duration(dt / s.timescale * float64(time.Second)))
		}
	}
}

// Close stops Run. In-flight streams receive no further events.
func (s *Server) Close() {
	s.mu.Lock()
	s.close = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Handler returns the HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", s.handleGenerate)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// generateRequest is the POST /v1/generate body.
type generateRequest struct {
	InputTokens  int  `json:"input_tokens"`
	MaxNewTokens int  `json:"max_new_tokens"`
	OutputTokens int  `json:"output_tokens"` // optional simulated EOS point
	Stream       bool `json:"stream"`
}

// A reply's Content-Type values, shared by every reply (see "Reading the
// body" above). With len == cap == 1, an Add after them appends to a copy.
var (
	contentJSON   = []string{"application/json"}
	contentNDJSON = []string{"application/x-ndjson"}
)

// generateResponse is the non-streaming response (and the final streaming
// event payload).
type generateResponse struct {
	ID           int64   `json:"id"`
	OutputTokens int     `json:"output_tokens"`
	TTFT         float64 `json:"ttft"`
	TPOT         float64 `json:"tpot"`
	MTPOT        float64 `json:"mtpot"`
	Latency      float64 `json:"latency"`
	Evictions    int     `json:"evictions"`
	Status       string  `json:"status"` // "ok" | "dropped" | "failed"
}

func (s *Server) handleGenerate(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	// The mailbox comes first so that the body is read into its buffer. It
	// goes back to the pool after generate returns, not in a defer: after a
	// panic a hook may still hold it, and it must not reach another request.
	mb := mailboxes.Get().(*mailbox)
	s.generate(w, req, mb)
	mb.recycle()
}

// generate reads, decodes and checks the body, then submits the request and
// replies, using mb for the body and the request's events.
func (s *Server) generate(w http.ResponseWriter, req *http.Request, mb *mailbox) {
	if _, err := mb.body.ReadFrom(http.MaxBytesReader(w, req.Body, maxBodyBytes)); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad body: "+err.Error(), code)
		return
	}
	body, err := decodeGenerate(mb.body.Bytes())
	if err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if body.InputTokens <= 0 {
		http.Error(w, "input_tokens must be positive", http.StatusBadRequest)
		return
	}
	if body.InputTokens > s.capacity || body.MaxNewTokens > s.capacity {
		http.Error(w, fmt.Sprintf("input_tokens and max_new_tokens may not exceed the KV capacity of %d tokens", s.capacity),
			http.StatusBadRequest)
		return
	}
	s.reply(w, req, s.submit(body, mb), mb)
}

// submit assigns the request its id, hands it to the engine and subscribes
// mb to its events, all under the lock.
func (s *Server) submit(body generateRequest, mb *mailbox) *request.Request {
	maxNew := body.MaxNewTokens
	if maxNew <= 0 {
		maxNew = s.defaultMaxNew
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	out := body.OutputTokens
	if out <= 0 {
		// Simulated EOS point: drawn from a ShareGPT-like distribution.
		out = int(s.r.LogNormal(5.3, 0.9)) + 1
	}
	r := request.New(s.next, body.InputTokens, out, maxNew, s.eng.Clock())
	mb.tokens = body.Stream
	s.subs[r.ID] = mb
	s.eng.Submit(r)
	s.cond.Signal()
	return r
}

// take moves the mailbox's pending events to mb.taken, whose previous batch
// the handler is done with, and reports whether the last of them is evEnd —
// if so with the request's summary, read under the same lock.
func (s *Server) take(mb *mailbox, r *request.Request) (sum generateResponse, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mb.taken, mb.events = mb.events, mb.taken[:0]
	if n := len(mb.taken); n > 0 && mb.taken[n-1].kind == evEnd {
		done = true
		sum = generateResponse{
			ID:           r.ID,
			OutputTokens: r.Generated,
			TTFT:         r.TTFT(),
			TPOT:         r.TPOT(),
			MTPOT:        r.MTPOT(),
			Latency:      r.Latency(),
			Evictions:    r.Evictions,
			Status:       status(r.Outcome),
		}
	}
	return sum, done
}

// unsubscribe drops the request's mailbox so notify discards what follows.
func (s *Server) unsubscribe(id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, id)
}

// reply writes the request's events as they arrive: on every wake, whatever
// the mailbox holds goes out as one Write — a line per token, then the
// summary line once evEnd is in. A stream flushes every Write but the last,
// which net/http flushes when the handler returns. A plain reply's mailbox
// only ever receives evEnd.
func (s *Server) reply(w http.ResponseWriter, req *http.Request, r *request.Request, mb *mailbox) {
	var flusher http.Flusher
	if mb.tokens {
		w.Header()["Content-Type"] = contentNDJSON
		flusher, _ = w.(http.Flusher)
	} else {
		w.Header()["Content-Type"] = contentJSON
	}
	gone := req.Context().Done()
	for {
		select {
		case <-mb.wake:
		case <-gone:
			s.unsubscribe(r.ID)
			return
		}
		sum, done := s.take(mb, r)
		buf := mb.buf[:0]
		for _, ev := range mb.taken {
			if ev.kind == evToken {
				buf = appendTokenLine(buf, r.ID, ev.index, ev.t)
			}
		}
		if done {
			buf = appendSummaryLine(buf, sum)
		}
		mb.buf = buf
		if len(buf) == 0 {
			// The previous take already carried off what this wake announced.
			continue
		}
		if _, err := w.Write(buf); err != nil {
			s.unsubscribe(r.ID)
			return
		}
		if done {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// appendTokenLine appends {"id":…,"t":…,"token":…} and a newline: what
// encoding/json writes for a map with those keys.
func appendTokenLine(b []byte, id int64, token int, t float64) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, id, 10)
	b = append(b, `,"t":`...)
	b = appendFloat(b, t)
	b = append(b, `,"token":`...)
	b = strconv.AppendInt(b, int64(token), 10)
	return append(b, '}', '\n')
}

// appendSummaryLine appends what encoding/json writes for v, and a newline.
// Status is one of three fixed words, so it needs no escaping.
func appendSummaryLine(b []byte, v generateResponse) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, v.ID, 10)
	b = append(b, `,"output_tokens":`...)
	b = strconv.AppendInt(b, int64(v.OutputTokens), 10)
	b = append(b, `,"ttft":`...)
	b = appendFloat(b, v.TTFT)
	b = append(b, `,"tpot":`...)
	b = appendFloat(b, v.TPOT)
	b = append(b, `,"mtpot":`...)
	b = appendFloat(b, v.MTPOT)
	b = append(b, `,"latency":`...)
	b = appendFloat(b, v.Latency)
	b = append(b, `,"evictions":`...)
	b = strconv.AppendInt(b, int64(v.Evictions), 10)
	b = append(b, `,"status":"`...)
	b = append(b, v.Status...)
	return append(b, '"', '}', '\n')
}

// appendFloat formats a finite f as encoding/json does: shortest form that
// round-trips, exponent notation below 1e-6 and from 1e21 up, and a
// two-digit negative exponent shortened (1e-07 becomes 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// statusResponse is GET /v1/status. Queue is everything accepted and not
// yet running (engine.WaitingLen): a request accepted since the driver's
// last step counts there too. RankDrops is how often an output length
// outside the history window's rank-index bound made the scheduler's
// conditional queries fall back to a search (dist.Window.RankDrops); it
// should stay 0.
type statusResponse struct {
	Clock       float64 `json:"clock"`
	Queue       int     `json:"queue"`
	Running     int     `json:"running"`
	KVUsed      int     `json:"kv_used_tokens"`
	KVCapacity  int     `json:"kv_capacity_tokens"`
	Utilization float64 `json:"kv_utilization"`
	HistoryLen  int     `json:"history_window_len"`
	RankDrops   int     `json:"history_rank_drops"`
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	resp := statusResponse{
		Clock:       s.eng.Clock(),
		Queue:       s.eng.WaitingLen(),
		Running:     s.eng.RunningLen(),
		KVUsed:      s.eng.Pool().UsedTokens(),
		KVCapacity:  s.eng.Pool().CapacityTokens(),
		Utilization: s.eng.Pool().Utilization(),
		HistoryLen:  s.eng.History().Len(),
		RankDrops:   s.eng.History().RankDrops(),
	}
	s.mu.Unlock()
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header()["Content-Type"] = contentJSON
	_ = json.NewEncoder(w).Encode(v)
}
