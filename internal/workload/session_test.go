package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/lightllm-go/lightllm/internal/rng"
)

func sessionsCfg() SessionsConfig {
	return SessionsConfig{
		Base:               ShareGPT,
		BlockTokens:        64,
		SystemPromptTokens: 256,
		SharedSystemRatio:  0.5,
		TurnProb:           0.6,
		MaxTurns:           6,
	}
}

// Multi-turn sessions must actually share prefixes: a follow-up turn's
// hashes extend its previous turn's, and sessions on the shared system
// prompt agree on the leading system blocks.
func TestSessionsPrefixChains(t *testing.T) {
	gen, err := NewSessions(sessionsCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	samples := make([]SessionSample, 400)
	for i := range samples {
		samples[i] = gen.SampleSession(r)
	}
	last := map[int64]SessionSample{}
	multiTurn := 0
	sysBlocks := 256 / 64
	// Sessions on the global system prompt share the whole leading chain, so
	// their sysBlocks-th hash collides; private sessions are all distinct.
	sysCounts := map[uint64]int{}
	for _, sm := range samples {
		if sm.SessionID == 0 {
			t.Fatal("sample without a session id")
		}
		if sm.In < len(sm.PrefixHashes)*64 {
			t.Fatalf("hashes cover %d tokens but prompt is %d", len(sm.PrefixHashes)*64, sm.In)
		}
		if prev, ok := last[sm.SessionID]; ok {
			multiTurn++
			if sm.Turn != prev.Turn+1 {
				t.Fatalf("session %d jumped from turn %d to %d", sm.SessionID, prev.Turn, sm.Turn)
			}
			if sm.In <= prev.In {
				t.Fatalf("turn %d prompt %d did not grow past %d", sm.Turn, sm.In, prev.In)
			}
			if len(sm.PrefixHashes) < len(prev.PrefixHashes) {
				t.Fatalf("turn %d carries fewer hashes than turn %d", sm.Turn, prev.Turn)
			}
			for i, h := range prev.PrefixHashes {
				if sm.PrefixHashes[i] != h {
					t.Fatalf("session %d turn %d hash %d diverged from its own history", sm.SessionID, sm.Turn, i)
				}
			}
		} else if sm.Turn != 1 {
			t.Fatalf("first sighting of session %d at turn %d", sm.SessionID, sm.Turn)
		}
		last[sm.SessionID] = sm
		if sm.Turn == 1 && len(sm.PrefixHashes) >= sysBlocks {
			sysCounts[sm.PrefixHashes[sysBlocks-1]]++
		}
	}
	if multiTurn == 0 {
		t.Fatal("no follow-up turns generated")
	}
	shared := 0
	for _, n := range sysCounts {
		if n > shared {
			shared = n
		}
	}
	if shared < 2 {
		t.Fatal("no sessions shared the system prompt (ratio 0.5)")
	}
}

// TestSessionsHashesGolden folds every hash chain of the first 10 000
// SampleSession draws at seed 1 into one FNV-1a value, recorded before the
// chain learned to grow once per turn: how a chain is stored may change, the
// hashes it holds may not.
func TestSessionsHashesGolden(t *testing.T) {
	const golden = 0x6dcea4dbecea8866
	gen, err := NewSessions(sessionsCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 10_000; i++ {
		sm := gen.SampleSession(r)
		binary.LittleEndian.PutUint64(buf[:], uint64(len(sm.PrefixHashes)))
		h.Write(buf[:])
		for _, x := range sm.PrefixHashes {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
	}
	if got := h.Sum64(); got != golden {
		t.Fatalf("session hash chains fold to %#x, golden %#x", got, golden)
	}
}

// A drained Stream over a Sessions generator must reproduce Build token for
// token: same lengths, classes, session ids, turns, and hash chains.
func TestSessionsBuildStreamEquivalence(t *testing.T) {
	const n = 300
	bGen, err := NewSessions(sessionsCfg())
	if err != nil {
		t.Fatal(err)
	}
	built := Build(bGen, rng.New(11), n, 1, 4096)

	sGen, err := NewSessions(sessionsCfg())
	if err != nil {
		t.Fatal(err)
	}
	st := NewStream(StreamConfig{
		Gen:      sGen,
		Lengths:  rng.New(11),
		Arrivals: rng.New(99),
		Phases:   []RatePhase{{Rate: 10, Duration: float64(n) / 10}},
		N:        n, FirstID: 1, MaxNew: 4096,
	})
	for i := 0; i < n; i++ {
		got := st.Next()
		want := built[i]
		if got.InputLen != want.InputLen || got.TrueOutputLen != want.TrueOutputLen ||
			got.Class != want.Class || got.SessionID != want.SessionID || got.Turn != want.Turn {
			t.Fatalf("request %d: stream (%d,%d,%q,s%d,t%d) != build (%d,%d,%q,s%d,t%d)",
				i, got.InputLen, got.TrueOutputLen, got.Class, got.SessionID, got.Turn,
				want.InputLen, want.TrueOutputLen, want.Class, want.SessionID, want.Turn)
		}
		if len(got.PrefixHashes) != len(want.PrefixHashes) {
			t.Fatalf("request %d: hash count %d != %d", i, len(got.PrefixHashes), len(want.PrefixHashes))
		}
		for j := range got.PrefixHashes {
			if got.PrefixHashes[j] != want.PrefixHashes[j] {
				t.Fatalf("request %d hash %d mismatch", i, j)
			}
		}
	}
}

// MaxInputTokens must bound every prompt the generator emits.
func TestSessionsInputCap(t *testing.T) {
	cfg := sessionsCfg()
	cfg.Base = Uniform{Label: "chat", InLo: 64, InHi: 512, OutLo: 64, OutHi: 512}
	cfg.TurnProb = 0.7
	cfg.MaxInputTokens = 3000
	gen, err := NewSessions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	followups := 0
	for i := 0; i < 600; i++ {
		sm := gen.SampleSession(r)
		if sm.Turn > 1 {
			followups++
		}
		if sm.Turn > 1 && sm.In >= 3000+512 {
			// The cap stops continuation once history crosses it, so a prompt
			// can overshoot by at most one turn's fresh text (≤ 512 here).
			t.Fatalf("prompt %d far past the input cap", sm.In)
		}
	}
	if followups == 0 {
		t.Fatal("no follow-up turns")
	}
}
