package workload

import (
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// StreamConfig configures an incremental arrival source.
type StreamConfig struct {
	// Gen draws each request's length pair (and class, if it implements
	// ClassedGenerator).
	Gen Generator
	// Lengths drives Gen's sampling; Arrivals drives the inter-arrival
	// gaps. They are separate streams so a drained Stream reproduces
	// Build (which consumes all length draws first) followed by
	// AssignPhasedArrivals, token for token.
	Lengths  *rng.RNG
	Arrivals *rng.RNG
	// Phases is the piecewise Poisson arrival process, with
	// AssignPhasedArrivals semantics: past the last phase's end, requests
	// keep arriving at the last phase's rate.
	Phases []RatePhase
	// N is the number of requests to produce; 0 means PhasedCount(Phases),
	// the population the phases expect.
	N int
	// FirstID numbers the requests sequentially from here.
	FirstID int64
	// MaxNew caps every request's output length (a deployment's
	// max_new_tokens). Must be positive, as request.New requires.
	MaxNew int
}

// Stream generates requests one at a time in nondecreasing arrival order —
// the iterator source behind Cluster.ServeStream. A multi-million-request
// day trace is replayed in O(1) workload memory: each request is built on
// demand and owned by the simulation afterwards, never collected into a
// slice. Drained fully, a Stream produces exactly the requests that
// Build(Gen, Lengths, n, FirstID, MaxNew) followed by
// AssignPhasedArrivals(reqs, Arrivals, Phases, 0) would.
type Stream struct {
	cfg     StreamConfig
	classed ClassedGenerator
	sessed  SessionGenerator

	produced int
	t        float64
	phase    int
	phaseEnd float64
	end      float64
}

// NewStream validates the config and positions the stream before the first
// request.
func NewStream(cfg StreamConfig) *Stream {
	if cfg.Gen == nil {
		panic("workload: stream needs a generator")
	}
	if cfg.Lengths == nil || cfg.Arrivals == nil {
		panic("workload: stream needs both RNG streams")
	}
	if len(cfg.Phases) == 0 {
		panic("workload: no arrival phases")
	}
	for _, ph := range cfg.Phases {
		if ph.Rate <= 0 {
			panic("workload: non-positive arrival rate")
		}
	}
	if cfg.MaxNew <= 0 {
		panic("workload: stream needs a positive MaxNew")
	}
	if cfg.N == 0 {
		cfg.N = PhasedCount(cfg.Phases)
	}
	s := &Stream{cfg: cfg, phaseEnd: cfg.Phases[0].Duration}
	s.classed, _ = cfg.Gen.(ClassedGenerator)
	s.sessed, _ = cfg.Gen.(SessionGenerator)
	for _, ph := range cfg.Phases {
		s.end += ph.Duration
	}
	return s
}

// Next returns the next request, or nil once N requests have been produced.
// Safe to keep calling after the end.
func (s *Stream) Next() *request.Request {
	if s.produced >= s.cfg.N {
		return nil
	}
	var in, out int
	var sm SessionSample
	class := s.cfg.Gen.Name()
	if s.sessed != nil {
		sm = s.sessed.SampleSession(s.cfg.Lengths)
		in, out, class = sm.In, sm.Out, sm.Class
	} else if s.classed != nil {
		in, out, class = s.classed.SampleWithClass(s.cfg.Lengths)
	} else {
		in, out = s.cfg.Gen.Sample(s.cfg.Lengths)
	}
	for s.t >= s.phaseEnd && s.phase < len(s.cfg.Phases)-1 {
		s.phase++
		s.phaseEnd += s.cfg.Phases[s.phase].Duration
	}
	s.t += s.cfg.Arrivals.Exp(1 / s.cfg.Phases[s.phase].Rate)
	req := request.New(s.cfg.FirstID+int64(s.produced), in, out, s.cfg.MaxNew, s.t)
	req.Class = class
	if s.sessed != nil {
		req.SessionID = sm.SessionID
		req.Turn = sm.Turn
		req.PrefixHashes = sm.PrefixHashes
	}
	s.produced++
	return req
}

// Produced returns how many requests the stream has generated so far.
func (s *Stream) Produced() int { return s.produced }

// Total returns how many requests the stream will generate in all.
func (s *Stream) Total() int { return s.cfg.N }

// End returns the end time of the last phase (arrivals may extend past it
// at the final phase's rate, exactly as AssignPhasedArrivals documents).
func (s *Stream) End() float64 { return s.end }
