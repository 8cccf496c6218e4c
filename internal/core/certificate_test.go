package core

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// certWorld is one side of a certificate twin: a scheduler, its history
// window, and the batch and queue it is asked about. Both sides are built
// from the same seed and every operation is applied to both alike; only the
// View.Epoch they see differs.
type certWorld struct {
	pf     *PastFuture
	w      *dist.Window
	v      *View
	queue  []*request.Request
	nextID int64
}

// newCertWorld builds a knee-shaped round from seed: a window of long and
// short outputs, a batch part of which has generated past the window's
// longest, a queue of fresh and requeued requests, and a capacity up to
// twice what the batch holds: as the batch grows into it, more and more
// rounds refuse the head, and then before drawing.
func newCertWorld(cfg PastFutureConfig, seed uint64) *certWorld {
	r := rng.New(seed)
	cw := &certWorld{w: dist.NewWindow(16 + r.Intn(200))}
	longest := 40 + r.Intn(600)
	// Half the worlds start cold, below the 16 lengths Past-Future waits
	// for, and warm only as window Adds arrive.
	fill := r.Intn(minHistory)
	if r.Intn(2) == 0 {
		fill = minHistory + r.Intn(300)
	}
	for i := 0; i < fill; i++ {
		cw.w.Add(1 + r.Intn(longest))
	}
	used := 0
	var running []*request.Request
	for i := 0; i < 2+r.Intn(60); i++ {
		req := cw.request(r, r.Intn(longest+longest/4))
		used += req.Footprint()
		running = append(running, req)
	}
	for i := 0; i < 1+r.Intn(6); i++ {
		gen := 0
		if r.Intn(4) == 0 {
			gen = 1 + r.Intn(longest) // an evicted request back in the queue
		}
		cw.queue = append(cw.queue, cw.request(r, gen))
	}
	capacity := used + r.Intn(used+2)
	cw.v = &View{
		CapacityTokens: capacity,
		UsedTokens:     used,
		FreeTokens:     max(capacity-used, 0),
		Running:        running,
		History:        cw.w,
	}
	if cfg.Rng != nil {
		cfg.Rng = rng.New(seed ^ 0x5eed)
	}
	cw.pf = MustNewPastFuture(cfg)
	return cw
}

// request makes a request that has generated gen tokens and will not finish
// inside any sequence, some with a prediction for NoResample to keep.
func (cw *certWorld) request(r *rng.RNG, gen int) *request.Request {
	cw.nextID++
	req := request.New(cw.nextID, 20+r.Intn(400), 1<<30, 1<<30, 0)
	req.Generated = gen
	if r.Intn(3) > 0 {
		req.PredictedLen = gen + r.Intn(200)
	}
	return req
}

// advance has the batch decode k tokens: the first request all k, each other
// one all k or, when partial, none (a request still landing its prompt).
func (cw *certWorld) advance(k int, partial *rng.RNG) {
	for i, r := range cw.v.Running {
		if i == 0 || partial == nil || partial.Intn(2) == 0 {
			r.Generated += k
		}
	}
}

// gapToMax is the fewest tokens any running request can generate before it
// reaches the window's longest observation, or 0 when all have.
func (cw *certWorld) gapToMax() int {
	gap := 0
	m := cw.w.Sampler().Max()
	for _, r := range cw.v.Running {
		if d := m - r.Generated; d > 0 && (gap == 0 || d < gap) {
			gap = d
		}
	}
	return gap
}

// certCounts tallies what a certificate sequence exercised: its rounds, the
// cold ones among them, and those refused before drawing.
type certCounts struct {
	rounds, cold, undrawn, repeats int
}

// runCertificateSequence applies ops to an Epoch-aware scheduler and its
// Epoch-blind twin (Epoch always 0, so every round takes the full pass) and
// fails at the first round on which they differ: the admitted count, the
// predicted M*, every running and queued PredictedLen, whether the round
// refused before drawing, and the next value of each generator. Each op byte
// is one step: a round (half of them offered to RefusesAgain first), a
// uniform advance, an advance that lands around the
// nearest window maximum, a partial advance, a new head or a longer queue, a
// window Add or a change to the capacity — all under an unchanged Epoch — or
// a new Epoch over an arbitrary change to the batch.
func runCertificateSequence(t *testing.T, seed uint64, ops []byte) certCounts {
	t.Helper()
	cfgRng := rng.New(seed)
	cfg := PastFutureConfig{
		Reserved:      0.05 * float64(cfgRng.Intn(3)),
		Deterministic: cfgRng.Intn(4) == 0,
		NoResample:    cfgRng.Intn(4) == 0,
		Samples:       1 + cfgRng.Intn(4),
		Quantile:      0.5 + 0.4*cfgRng.Float64(),
	}
	if !cfg.Deterministic {
		cfg.Rng = rng.New(0) // each world reseeds its own
	}
	switch cfgRng.Intn(3) {
	case 0:
		cfg.SmallBatch = 1 + cfgRng.Intn(100) // often above batch + queue: multi-sampled
	case 1:
		// Just above batch + queue: the first arrivals end multi-sampling.
		w := newCertWorld(cfg, seed)
		cfg.SmallBatch = len(w.v.Running) + len(w.queue) + 1 + cfgRng.Intn(3)
	}
	aware, blind := newCertWorld(cfg, seed), newCertWorld(cfg, seed)
	worlds := [2]*certWorld{aware, blind}
	epoch := uint64(1)
	op := rng.New(seed ^ 0x0b5)
	var n certCounts
	for i, b := range ops {
		kind, param := b%9, int(b/9)
		switch kind {
		case 0, 1:
			if len(aware.queue) == 0 {
				break
			}
			aware.v.Epoch, blind.v.Epoch = epoch, 0
			var g0 int
			if len(aware.v.Running) > 0 {
				g0 = aware.v.Running[0].Generated
			}
			before := aware.pf.cert
			// Half the rounds ask RefusesAgain first, as an engine does,
			// and reach Admit only when it declines.
			got := 0
			if kind == 0 || !aware.pf.RefusesAgain(RepeatRound{Epoch: epoch, Head: aware.queue[0],
				Running: len(aware.v.Running), Queued: len(aware.queue), Lead: g0, History: aware.v.History,
				CapacityTokens: aware.v.CapacityTokens}) {
				got = aware.pf.Admit(aware.v, aware.queue)
			}
			want := blind.pf.Admit(blind.v, blind.queue)
			n.rounds++
			if aware.v.History.Len() < minHistory {
				n.cold++
			}
			if got != want {
				t.Fatalf("op %d: admitted %d, Epoch-blind twin %d", i, got, want)
			}
			if aware.pf.undrawn != blind.pf.undrawn {
				t.Fatalf("op %d: refused before drawing %v, twin %v", i, aware.pf.undrawn, blind.pf.undrawn)
			}
			if aware.v.PredictedPeak != blind.v.PredictedPeak {
				t.Fatalf("op %d: predicted M* %d, twin %d", i, aware.v.PredictedPeak, blind.v.PredictedPeak)
			}
			pa, pb := predictions(aware.v, aware.queue), predictions(blind.v, blind.queue)
			for j := range pb {
				if pa[j] != pb[j] {
					t.Fatalf("op %d: prediction %d of %d running then queued: %d, twin %d", i, j, len(aware.v.Running), pa[j], pb[j])
				}
			}
			if cfg.Rng != nil {
				if a, b := aware.pf.cfg.Rng.Uint64(), blind.pf.cfg.Rng.Uint64(); a != b {
					t.Fatalf("op %d: generators diverged: next value %d, twin %d", i, a, b)
				}
			}
			if aware.pf.undrawn {
				n.undrawn++
				// A full pass takes g0 anew; the certificate keeps the old one.
				if before.epoch == epoch && aware.pf.cert == before && len(aware.v.Running) > 0 && g0 != before.g0 {
					n.repeats++
				}
			}
			if got > 0 {
				for _, cw := range worlds {
					cw.v.Running = append(cw.v.Running, cw.queue[:got]...)
					cw.queue = cw.queue[got:]
					cw.v.PredictedPeak = 0
				}
				epoch++ // a prefill is not a decode step
			}
		case 2:
			for _, cw := range worlds {
				cw.advance(param+1, nil)
			}
		case 3:
			k := aware.gapToMax() + param%3 - 1 // just short of, at and past it
			for _, cw := range worlds {
				cw.advance(max(k, 0), nil)
			}
		case 4:
			seed := op.Uint64()
			for _, cw := range worlds {
				cw.advance(param+1, rng.New(seed))
			}
		case 5:
			// The queue changes under the same Epoch: the head rotates to
			// the back, a new request arrives ahead of it, or one arrives
			// behind it — the head stays, the queue grows.
			if param%3 == 0 && len(aware.queue) > 1 {
				for _, cw := range worlds {
					cw.queue = append(cw.queue[1:], cw.queue[0])
				}
				break
			}
			s := op.Uint64()
			for _, cw := range worlds {
				req := cw.request(rng.New(s), 0)
				if param%3 == 1 {
					cw.queue = append([]*request.Request{req}, cw.queue...)
				} else {
					cw.queue = append(cw.queue, req)
				}
			}
		case 6:
			v := 1 + param*param*3
			for _, cw := range worlds {
				cw.w.Add(v)
			}
		case 7:
			d := param - 15
			for _, cw := range worlds {
				cw.v.CapacityTokens = max(cw.v.CapacityTokens+d*64, 0)
			}
		case 8:
			// A new Epoch: anything may have happened to the batch.
			epoch++
			s := op.Uint64()
			for _, cw := range worlds {
				r := rng.New(s)
				switch {
				case param%3 == 0 && len(cw.v.Running) > 1:
					j := r.Intn(len(cw.v.Running))
					cw.v.Running = append(cw.v.Running[:j:j], cw.v.Running[j+1:]...)
				case param%3 == 1:
					req := cw.request(r, r.Intn(300))
					cw.v.Running = append(cw.v.Running, req)
				default:
					for _, req := range cw.v.Running {
						req.Generated = max(req.Generated-r.Intn(5), 0)
					}
				}
			}
		}
	}
	return n
}

// FuzzRefusalCertificate holds the O(1) repeat of a refusal before drawing
// (repeatRefusal) to the full pass, through runCertificateSequence: whatever
// the sequence of decode steps, head swaps, window Adds and new Epochs, an
// Epoch-aware scheduler decides, predicts and draws exactly as its
// Epoch-blind twin.
func FuzzRefusalCertificate(f *testing.F) {
	f.Add(uint64(1), []byte{0, 2, 0, 2, 0, 3, 0, 12, 0, 5, 0, 6, 0, 8, 0})
	f.Add(uint64(7), []byte{0, 11, 0, 20, 0, 3, 0, 21, 0, 4, 0, 13, 0, 2, 0, 0})
	f.Add(uint64(42), []byte{0, 2, 2, 0, 14, 0, 23, 0, 15, 0, 24, 0, 7, 0, 16, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		runCertificateSequence(t, seed, ops)
	})
}

// TestRefusalCertificate runs runCertificateSequence over many seeds and
// long random sequences, and fails unless rounds were settled by the
// certificate — some after the batch advanced under it — and others refused
// before drawing by the full pass.
func TestRefusalCertificate(t *testing.T) {
	var total certCounts
	src := rng.New(99)
	for seed := uint64(1); seed <= 300; seed++ {
		ops := make([]byte, 120)
		for i := range ops {
			ops[i] = byte(src.Intn(256))
			if src.Intn(3) == 0 {
				ops[i] = 0 // rounds between most steps
			}
		}
		n := runCertificateSequence(t, seed, ops)
		total.rounds += n.rounds
		total.cold += n.cold
		total.undrawn += n.undrawn
		total.repeats += n.repeats
	}
	if total.repeats == 0 || total.repeats == total.undrawn || total.cold == 0 || total.cold == total.rounds {
		t.Fatalf("%d rounds (%d cold), %d refused before drawing, %d of them by the certificate after an advance: a path is never exercised",
			total.rounds, total.cold, total.undrawn, total.repeats)
	}
	t.Logf("%d rounds (%d cold), %d refused before drawing, %d of them by the certificate after an advance", total.rounds, total.cold, total.undrawn, total.repeats)
}
