package workload

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// SessionSample is one sampled request carrying its session identity and
// the chained prefix-block hashes the KV prefix cache matches on.
type SessionSample struct {
	In, Out      int
	Class        string
	SessionID    int64
	Turn         int // 1-based turn index within the session
	PrefixHashes []uint64
}

// SessionGenerator is a Generator that additionally stamps session identity
// and prefix hashes on each sample. Build and Stream detect it and copy the
// stamps onto the materialised requests; everything else treats it as a
// plain length generator.
type SessionGenerator interface {
	Generator
	SampleSession(r *rng.RNG) SessionSample
}

// SessionsConfig parameterises the multi-turn conversation synthesizer.
type SessionsConfig struct {
	// Base draws each turn's fresh-text length pair (and class, if it
	// implements ClassedGenerator). Required.
	Base Generator
	// BlockTokens is the prefix-hash granularity and must match the serving
	// engines' PrefixCache.BlockTokens for the hashes to mean anything.
	// 0 selects 64.
	BlockTokens int
	// SystemPromptTokens prepends this many tokens to every session's first
	// turn (and, through the history, to every later one). 0 = none.
	SystemPromptTokens int
	// SharedSystemRatio is the fraction of sessions whose system prompt is
	// the one global prompt (identical hashes across sessions — the
	// cross-session sharing the cache exploits); the rest get a
	// session-private prompt of the same length. 0 = all private.
	SharedSystemRatio float64
	// TurnProb is the probability, after each emitted turn, that the
	// session continues with another one — geometric turn depth. 0 = every
	// session is single-turn (prefix-share 0).
	TurnProb float64
	// MaxTurns caps a session's turn count. 0 selects 8.
	MaxTurns int
	// MaxInputTokens stops continuing a session once its next prompt would
	// exceed this (conversations cannot outgrow the KV pool). 0 = no cap.
	MaxInputTokens int
}

// sessionCooldown is how many other requests interleave between a session's
// consecutive turns (think time expressed in arrival positions, so the
// generator stays a pure function of the Lengths draw sequence and
// Build/Stream equivalence holds).
const sessionCooldown = 2

// sharedSystemSalt seeds the hash chain of the global shared system prompt;
// private sessions chain from a per-session salt instead, so their blocks
// never collide with another session's.
const sharedSystemSalt = 0x5e55_10f0_5a17_0001

// session is one live conversation's state.
type session struct {
	id    int64
	class string
	salt  uint64   // content seed for the session-private blocks
	chain []uint64 // chained block hashes over the conversation so far
	sys   int      // leading blocks chained from the shared system salt
	hist  int      // conversation tokens accumulated before the next turn
	turn  int      // turns emitted so far
	ready int      // draw index at which the next turn is due
}

// Sessions synthesizes multi-turn conversations over a base length
// generator: each session opens with an optional (possibly shared) system
// prompt, every follow-up turn's prompt is the full conversation history
// plus fresh user text, and the request carries the chained block hashes of
// that history — the exact prefix the serving side's KV cache can serve
// without recomputing. All randomness comes from the one RNG passed to
// SampleSession, so a drained Stream reproduces Build draw for draw.
// Stateful; not safe for concurrent use.
type Sessions struct {
	cfg     SessionsConfig
	classed ClassedGenerator

	draws    int        // Sample calls so far (the cooldown clock)
	nextID   int64      // next session id (1-based; 0 means "no session")
	pending  []*session // sessions awaiting their next turn, FIFO by ready
	sysChain []uint64   // hash chain of the shared system prompt
}

// NewSessions validates the config and returns the synthesizer.
func NewSessions(cfg SessionsConfig) (*Sessions, error) {
	if cfg.Base == nil {
		return nil, fmt.Errorf("workload: sessions need a base generator")
	}
	if cfg.BlockTokens == 0 {
		cfg.BlockTokens = 64
	}
	if cfg.BlockTokens < 0 {
		return nil, fmt.Errorf("workload: negative session block tokens %d", cfg.BlockTokens)
	}
	if cfg.SystemPromptTokens < 0 || cfg.MaxInputTokens < 0 {
		return nil, fmt.Errorf("workload: negative session token bounds")
	}
	if cfg.SharedSystemRatio < 0 || cfg.SharedSystemRatio > 1 {
		return nil, fmt.Errorf("workload: shared-system ratio %v outside [0,1]", cfg.SharedSystemRatio)
	}
	if cfg.TurnProb < 0 || cfg.TurnProb >= 1 {
		return nil, fmt.Errorf("workload: turn probability %v outside [0,1)", cfg.TurnProb)
	}
	if cfg.MaxTurns == 0 {
		cfg.MaxTurns = 8
	}
	if cfg.MaxTurns < 0 {
		return nil, fmt.Errorf("workload: negative max turns %d", cfg.MaxTurns)
	}
	s := &Sessions{cfg: cfg, nextID: 1}
	s.classed, _ = cfg.Base.(ClassedGenerator)
	sysBlocks := cfg.SystemPromptTokens / cfg.BlockTokens
	s.sysChain = make([]uint64, sysBlocks)
	h := uint64(0)
	for i := range s.sysChain {
		h = kv.PrefixHash(h, sharedSystemSalt+uint64(i))
		s.sysChain[i] = h
	}
	return s, nil
}

// Name implements Generator.
func (s *Sessions) Name() string { return "sessions(" + s.cfg.Base.Name() + ")" }

// Sample implements Generator, dropping the session stamps — so a Sessions
// behind an interface that never asks for them still draws the same
// lengths in the same order.
func (s *Sessions) Sample(r *rng.RNG) (int, int) {
	sm := s.SampleSession(r)
	return sm.In, sm.Out
}

// SampleWithClass implements ClassedGenerator.
func (s *Sessions) SampleWithClass(r *rng.RNG) (int, int, string) {
	sm := s.SampleSession(r)
	return sm.In, sm.Out, sm.Class
}

// SampleSession implements SessionGenerator: emit the due follow-up turn if
// one exists, otherwise open a new session. Exactly the draw sequence
// {lengths, [shared-system], [continue]} per call, whoever drives it.
func (s *Sessions) SampleSession(r *rng.RNG) SessionSample {
	s.draws++
	if len(s.pending) > 0 && s.pending[0].ready <= s.draws {
		ses := s.pending[0]
		copy(s.pending, s.pending[1:])
		s.pending[len(s.pending)-1] = nil
		s.pending = s.pending[:len(s.pending)-1]
		return s.emit(ses, r)
	}
	in, out := 0, 0
	class := s.cfg.Base.Name()
	if s.classed != nil {
		in, out, class = s.classed.SampleWithClass(r)
	} else {
		in, out = s.cfg.Base.Sample(r)
	}
	prompt := s.cfg.SystemPromptTokens + in
	ses := &session{
		id: s.nextID, class: class, salt: kv.PrefixHash(sharedSystemSalt, uint64(s.nextID)),
		chain: make([]uint64, 0, prompt/s.cfg.BlockTokens),
	}
	s.nextID++
	if s.cfg.SystemPromptTokens > 0 && r.Bool(s.cfg.SharedSystemRatio) {
		ses.sys = len(s.sysChain)
		ses.chain = append(ses.chain, s.sysChain...)
	}
	return s.finish(ses, r, prompt, in, out)
}

// emit produces one follow-up turn: fresh lengths from the base generator,
// prompt = accumulated history + fresh text, class pinned at the session's.
func (s *Sessions) emit(ses *session, r *rng.RNG) SessionSample {
	var in, out int
	if s.classed != nil {
		in, out, _ = s.classed.SampleWithClass(r)
	} else {
		in, out = s.cfg.Base.Sample(r)
	}
	return s.finish(ses, r, ses.hist+in, in, out)
}

// finish extends the session's hash chain over the new prompt, decides
// whether the session continues, and assembles the sample. The chain grows
// in one step to the prompt's blocks; earlier samples keep the arrays
// they were handed.
func (s *Sessions) finish(ses *session, r *rng.RNG, prompt, in, out int) SessionSample {
	ses.turn++
	ses.hist = prompt + out
	blocks := prompt / s.cfg.BlockTokens
	if blocks > cap(ses.chain) {
		chain := make([]uint64, len(ses.chain), blocks)
		copy(chain, ses.chain)
		ses.chain = chain
	}
	for len(ses.chain) < blocks {
		prev := uint64(0)
		if n := len(ses.chain); n > 0 {
			prev = ses.chain[n-1]
		}
		ses.chain = append(ses.chain, kv.PrefixHash(prev, ses.salt+uint64(len(ses.chain))))
	}
	sm := SessionSample{
		In: prompt, Out: out,
		Class:        ses.class,
		SessionID:    ses.id,
		Turn:         ses.turn,
		PrefixHashes: ses.chain[:blocks],
	}
	if ses.turn < s.cfg.MaxTurns &&
		(s.cfg.MaxInputTokens == 0 || ses.hist < s.cfg.MaxInputTokens) &&
		r.Bool(s.cfg.TurnProb) {
		ses.ready = s.draws + 1 + sessionCooldown
		s.pending = append(s.pending, ses)
	}
	return sm
}
