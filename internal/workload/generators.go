// Package workload synthesizes the request populations of the paper's
// evaluation: the three uniform length distributions (Distribution-1/2/3),
// ShareGPT, the decode-heavy ShareGPT-o1 reasoning workload, the multimodal
// TextVQA workload, and the trace datasets used by the window-similarity
// study (BurstGPT conversation/API, in-house dialog/code, Mooncake-like).
// It also provides the arrival processes (all-at-once batch, open-loop
// Poisson, closed-loop clients) that drive the engine.
//
// Real traces are not redistributable (and the in-house ones never were);
// every generator here is a parameterised synthesizer calibrated to the
// statistics the paper actually uses: marginal input/output token-length
// distributions and, for the trace study, how the output distribution
// drifts over time.
package workload

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// Generator produces request length pairs.
type Generator interface {
	// Name is the workload's display name in experiment tables.
	Name() string
	// Sample returns one (inputLen, outputLen) pair.
	Sample(r *rng.RNG) (inputLen, outputLen int)
}

// Uniform draws input and output lengths from independent integer uniforms —
// the paper's Distribution-1/2/3.
type Uniform struct {
	Label                    string
	InLo, InHi, OutLo, OutHi int
}

// Name implements Generator.
func (u Uniform) Name() string { return u.Label }

// Sample implements Generator.
func (u Uniform) Sample(r *rng.RNG) (int, int) {
	return r.IntRange(u.InLo, u.InHi), r.IntRange(u.OutLo, u.OutHi)
}

// The paper's three synthetic distributions (§5.1): input/output uniform in
//
//	Distribution-1: 32–4k / 2k–4k  (decode-heavy)
//	Distribution-2: 3k–5k / 3k–5k  (balanced)
//	Distribution-3: 2k–4k / 32–4k  (prefill-heavy)
var (
	Distribution1 = Uniform{Label: "Distribution-1", InLo: 32, InHi: 4096, OutLo: 2048, OutHi: 4096}
	Distribution2 = Uniform{Label: "Distribution-2", InLo: 3072, InHi: 5120, OutLo: 3072, OutHi: 5120}
	Distribution3 = Uniform{Label: "Distribution-3", InLo: 2048, InHi: 4096, OutLo: 32, OutHi: 4096}
)

// LogNormal draws lengths from a discretised, clipped lognormal — the shape
// of real LLM service length distributions.
type LogNormal struct {
	Label                    string
	InMu, InSigma            float64
	OutMu, OutSigma          float64
	InLo, InHi, OutLo, OutHi int
	// ExtraInput adds a fixed number of prompt tokens (image tokens for
	// multimodal workloads).
	ExtraInput int
}

// Name implements Generator.
func (l LogNormal) Name() string { return l.Label }

// Sample implements Generator.
func (l LogNormal) Sample(r *rng.RNG) (int, int) {
	in := clampInt(int(r.LogNormal(l.InMu, l.InSigma)), l.InLo, l.InHi) + l.ExtraInput
	out := clampInt(int(r.LogNormal(l.OutMu, l.OutSigma)), l.OutLo, l.OutHi)
	return in, out
}

// ShareGPT approximates the ShareGPT conversation dataset used in §5.4:
// prompts of a few hundred tokens, outputs of a few hundred tokens.
var ShareGPT = LogNormal{
	Label: "ShareGPT",
	InMu:  5.2, InSigma: 1.1, InLo: 4, InHi: 2048,
	OutMu: 5.3, OutSigma: 0.9, OutLo: 1, OutHi: 2048,
}

// ShareGPTO1 approximates the paper's ShareGPT-o1 dataset (ShareGPT prompts
// replayed against the o1-preview reasoning API): ordinary prompts
// (~380 tokens mean) but very long chain-of-thought outputs (~2.2k mean) —
// the decode-heavy regime where aggressive schedulers collapse.
var ShareGPTO1 = LogNormal{
	Label: "ShareGPT-o1",
	InMu:  5.4, InSigma: 1.0, InLo: 4, InHi: 3072,
	OutMu: 7.5, OutSigma: 0.65, OutLo: 64, OutHi: 8192,
}

// LongContext approximates a document-analysis / RAG workload: very long
// prompts (32k median, up to 64k) with short summarisation-style outputs.
// A fused prefill of one of these prompts monopolises an engine for
// seconds — the head-of-line regime chunked prefill exists for.
var LongContext = LogNormal{
	Label: "LongContext",
	InMu:  10.4, InSigma: 0.35, InLo: 16384, InHi: 65536,
	OutMu: 4.8, OutSigma: 0.6, OutLo: 16, OutHi: 512,
}

// LongCtxMix blends the LongContext class into the interactive ShareGPT
// chat traffic at the given request share (0..1). Because Mixed implements
// ClassedGenerator, Build and NewStream both stamp each request with its
// class ("LongContext" or "ShareGPT"), so per-class SLA reporting needs no
// side channel.
func LongCtxMix(longShare float64) Mixed {
	return Mixed{
		Label:   fmt.Sprintf("LongCtx(%.0f%%)", longShare*100),
		Parts:   []Generator{ShareGPT, LongContext},
		Weights: []float64{1 - longShare, longShare},
	}
}

// TextVQA approximates the TextVQA validation workload for a multimodal
// model: imageTokens prompt tokens per image plus a short question, and a
// short answer.
func TextVQA(imageTokens int) LogNormal {
	return LogNormal{
		Label: fmt.Sprintf("TextVQA(img=%d)", imageTokens),
		InMu:  3.6, InSigma: 0.5, InLo: 8, InHi: 256,
		OutMu: 3.4, OutSigma: 0.7, OutLo: 2, OutHi: 256,
		ExtraInput: imageTokens,
	}
}

// Concat chains generators: the first n1 requests come from the first
// generator, the next n2 from the second, and so on — Figure 8's
// varying-distribution load (ShareGPT-o1 ⧺ Dist-1 ⧺ Dist-2 ⧺ Dist-3).
type Concat struct {
	Label   string
	Parts   []Generator
	PerPart int
	sampled int
}

// Name implements Generator.
func (c *Concat) Name() string { return c.Label }

// Sample implements Generator. It is stateful: successive calls walk
// through the parts.
func (c *Concat) Sample(r *rng.RNG) (int, int) {
	idx := c.sampled / c.PerPart
	if idx >= len(c.Parts) {
		idx = len(c.Parts) - 1
	}
	c.sampled++
	return c.Parts[idx].Sample(r)
}

// Build materialises n requests from a generator with sequential IDs
// starting at firstID, all arriving at time 0 (batch mode). maxNew caps the
// output length, as a real deployment's max_new_tokens parameter would.
// Generators implementing ClassedGenerator label each request with its own
// sample's class; others label all requests with the generator's name.
// SessionGenerators additionally stamp session identity and prefix hashes.
func Build(gen Generator, r *rng.RNG, n int, firstID int64, maxNew int) []*request.Request {
	classed, _ := gen.(ClassedGenerator)
	sessed, _ := gen.(SessionGenerator)
	reqs := make([]*request.Request, n)
	for i := range reqs {
		if sessed != nil {
			sm := sessed.SampleSession(r)
			reqs[i] = request.New(firstID+int64(i), sm.In, sm.Out, maxNew, 0)
			reqs[i].Class = sm.Class
			reqs[i].SessionID = sm.SessionID
			reqs[i].Turn = sm.Turn
			reqs[i].PrefixHashes = sm.PrefixHashes
			continue
		}
		var in, out int
		class := gen.Name()
		if classed != nil {
			in, out, class = classed.SampleWithClass(r)
		} else {
			in, out = gen.Sample(r)
		}
		reqs[i] = request.New(firstID+int64(i), in, out, maxNew, 0)
		reqs[i].Class = class
	}
	return reqs
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
