package core

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// TestMStarControlFollowsSchedulerRules: a control scheduler configured like
// the scheduler and seeded like its RNG replays the scheduler's draws, so on
// an admitting round its M* is the scheduler's PredictedPeak and both report
// the same error — in every mode: deterministic, sampled, multi-sampled small
// batches, NoResample and cold start. The observer writes no request field.
func TestMStarControlFollowsSchedulerRules(t *testing.T) {
	// The multi-sample case's batch and queue straddle SmallBatch on a tight
	// pool, so that some rounds multi-sample only because of the requests
	// they left queued.
	cases := map[string]struct {
		cfg              PastFutureConfig
		running, history int
		capacity         int // the pool holds capacity/2 to 3·capacity/2 tokens
	}{
		"deterministic": {PastFutureConfig{Reserved: 0.05, Deterministic: true}, 30, 200, 12_000},
		"sampled":       {PastFutureConfig{Reserved: 0.05}, 30, 200, 12_000},
		"multi-sample":  {PastFutureConfig{Reserved: 0.05}, 6, 200, 1_500},
		"no-resample":   {PastFutureConfig{Reserved: 0.05, NoResample: true}, 30, 200, 12_000},
		"cold-start":    {PastFutureConfig{Reserved: 0.05}, 30, 8, 12_000},
	}
	for name, c := range cases {
		compared := 0
		for seed := uint64(1); seed <= 40; seed++ {
			r := rng.New(seed)
			w := dist.NewWindow(c.history)
			for i := 0; i < c.history; i++ {
				w.Add(1 + r.Intn(300))
			}
			var running, queue []*request.Request
			for i, n := 0, 1+r.Intn(c.running); i < n; i++ {
				q := request.New(int64(i+1), 10+r.Intn(90), 2+r.Intn(298), 300, 0)
				q.Generated = 1 + r.Intn(q.TrueOutputLen-1)
				q.PredictedLen = q.Generated + 1 + r.Intn(300-q.Generated)
				running = append(running, q)
			}
			for i, n := 0, 1+r.Intn(6); i < n; i++ {
				queue = append(queue, request.New(int64(1000+i), 10+r.Intn(90), 1+r.Intn(300), 300, 0))
			}
			sched, control := c.cfg, c.cfg
			if !c.cfg.Deterministic {
				sched.Rng, control.Rng = rng.New(seed+100), rng.New(seed+100)
			}
			v := view(c.capacity/2+r.Intn(c.capacity), running, w)
			n := MustNewPastFuture(sched).Admit(v, queue)
			if n == 0 {
				continue
			}
			predicted := map[*request.Request]int{}
			for _, q := range append(append([]*request.Request(nil), running...), queue...) {
				predicted[q] = q.PredictedLen
			}
			o := NewMStarObserver(MustNewPastFuture(control))
			o.Observe(0, AdmitRound{View: v, Queued: len(queue), Admitted: queue[:n], Whole: true})
			for q, p := range predicted {
				if q.PredictedLen != p {
					t.Fatalf("%s seed %d: the observer moved request %d's PredictedLen %d → %d", name, seed, q.ID, p, q.PredictedLen)
				}
			}
			if s, ctl := o.Scheduler(), o.Control(); s.Rounds != 1 || s != ctl {
				t.Fatalf("%s seed %d: scheduler %+v, control %+v", name, seed, s, ctl)
			}
			compared++
		}
		if compared < 10 {
			t.Fatalf("%s: only %d of 40 rounds admitted", name, compared)
		}
	}
}

// TestMStarObserverSkipsUncomparableRounds: every admitting round counts
// toward the future-required ratio, but only rounds that predicted an M*
// for a batch the engine kept whole are held against it.
func TestMStarObserverSkipsUncomparableRounds(t *testing.T) {
	batch := []*request.Request{request.New(1, 10, 20, 50, 0), request.New(2, 30, 5, 50, 0)}
	truth := TrueFutureRequiredMemory(batch)
	o := NewMStarObserver(nil)
	for _, round := range []struct {
		peak  int
		whole bool
	}{{0, true}, {truth + 10, false}, {truth - 5, true}} {
		v := view(2*truth, batch[:1], nil)
		v.PredictedPeak = round.peak
		o.Observe(0, AdmitRound{View: v, Queued: 1, Admitted: batch[1:], Whole: round.whole})
	}
	if got := o.FutureRequiredMean(); got != 0.5 {
		t.Fatalf("future required mean %v, want 0.5", got)
	}
	s := o.Scheduler()
	if s.Rounds != 1 || s.UnderShare != 1 || s.RelErrMax != 5/float64(truth) {
		t.Fatalf("scheduler error %+v, want one under-predicting round off by 5 of %d", s, truth)
	}
	if ctl := o.Control(); ctl != (MStarError{}) {
		t.Fatalf("control error %+v without a control scheduler", ctl)
	}
}
