package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// hiddenRefuser embeds a scheduler and so hides its RefusesAgain: the engine
// behind it sends every round to Admit, as it did before the method existed.
type hiddenRefuser struct{ core.Scheduler }

// askCounter passes a scheduler's RefusesAgain through and counts its yeses.
type askCounter struct {
	core.Scheduler
	yes int
}

func (a *askCounter) RefusesAgain(r core.RepeatRound) bool {
	ok := a.Scheduler.(core.RepeatRefuser).RefusesAgain(r)
	a.yes += b2i(ok)
	return ok
}

// twinRun is one engine of TestRefusesAgainMatchesAdmit: its Past-Future
// scheduler (nil for Conservative) and that scheduler's generator (nil in
// deterministic mode), how many rounds RefusesAgain refused, its requests
// and result.
type twinRun struct {
	pf   *core.PastFuture
	gen  *rng.RNG
	yes  int
	reqs []*request.Request
	res  *Result
}

// twinCase is one scenario of TestRefusesAgainMatchesAdmit: the Past-Future
// scheduler's configuration (Reserved and Rng are set per run) or
// Conservative, the engine's configuration, whether an admit hook is
// attached (every round priced), and whether some round must be refused
// through RefusesAgain.
type twinCase struct {
	name         string
	pf           core.PastFutureConfig
	conservative bool
	cfg          func(sched core.Scheduler, seed uint64) Config
	hook         bool
	repeats      bool
}

// TestRefusesAgainMatchesAdmit serves the same run twice: once with the
// Past-Future scheduler bare, so a coasting engine settles a repeated refusal
// through RefusesAgain without handing out owed tokens, copying the queue or
// building a View, and once behind hiddenRefuser, so every round goes through
// Admit. The two must end alike — the Result field by field, every request's
// timing floats bit for bit, the scheduler's rounds by exit (each repeat the
// bare engine asked for is one the hidden twin's Admit settled) and its
// generator's next value. The knee cases must ask RefusesAgain some yes; the
// light case must never see one. Conservative's certificate is held the
// same way, without the Past-Future counts.
func TestRefusesAgainMatchesAdmit(t *testing.T) {
	knee := func(s core.Scheduler, seed uint64) Config { return kneeConfig(s, seed, 0) }
	for _, tc := range []twinCase{
		{name: "sampling", cfg: knee, repeats: true},
		{name: "deterministic", pf: core.PastFutureConfig{Deterministic: true, Quantile: 0.2}, cfg: knee, repeats: true},
		{
			// Every length redrawn Samples times, from a window that starts
			// short of the stream's outputs, so the batch still fills to the
			// floor.
			name: "multi-sample", pf: core.PastFutureConfig{SmallBatch: 1000}, repeats: true,
			cfg: func(s core.Scheduler, seed uint64) Config {
				c := kneeConfig(s, seed, 0)
				c.SeedHistory = seedHistory(seed, 100)
				return c
			},
		},
		{name: "no-resample", pf: core.PastFutureConfig{NoResample: true}, cfg: knee, repeats: true},
		{name: "queue-timeout", cfg: func(s core.Scheduler, seed uint64) Config { return kneeConfig(s, seed, 3) }, repeats: true},
		{name: "admit-hook", cfg: knee, hook: true, repeats: true},
		{name: "conservative", conservative: true, cfg: knee, repeats: true},
		{
			// A pool that holds every request: no round refuses, so none
			// repeats a refusal.
			name: "light",
			cfg: func(s core.Scheduler, seed uint64) Config {
				c := kneeConfig(s, seed, 0)
				c.CapacityOverride = 200_000
				return c
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range coastSeeds(t) {
				tc.check(t, seed)
			}
		})
	}
}

// run serves kneeStream(seed) on one twin, RefusesAgain hidden or not.
func (tc twinCase) run(t *testing.T, seed uint64, hide bool) twinRun {
	var tw twinRun
	var sched core.Scheduler = core.MustNewConservative(1.0)
	if !tc.conservative {
		pfc := tc.pf
		pfc.Reserved = 0.05
		if !pfc.Deterministic {
			pfc.Rng = rng.New(seed)
		}
		tw.pf, tw.gen = core.MustNewPastFuture(pfc), pfc.Rng
		sched = tw.pf
	}
	asked := &askCounter{Scheduler: sched}
	if hide {
		sched = hiddenRefuser{sched}
	} else {
		sched = asked
	}
	cfg := tc.cfg(sched, seed)
	cfg.Perf = testPerf(t)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tc.hook {
		e.AddAdmitHook(func(float64, core.AdmitRound) {})
	}
	tw.reqs = kneeStream(seed)
	e.SubmitAll(tw.reqs)
	for e.Step() {
	}
	tw.yes, tw.res = asked.yes, e.Snapshot()
	return tw
}

// check serves both twins at one seed and compares them.
func (tc twinCase) check(t *testing.T, seed uint64) {
	what := fmt.Sprintf("seed %d", seed)
	bare, hidden := tc.run(t, seed, false), tc.run(t, seed, true)
	sameResult(t, what, bare.res, hidden.res)
	for i, r := range bare.reqs {
		sameRequest(t, what, r, hidden.reqs[i])
	}
	if bare.gen != nil {
		if b, h := bare.gen.Uint64(), hidden.gen.Uint64(); b != h {
			t.Fatalf("%s: the generators' next values differ: %d bare, %d hidden", what, b, h)
		}
	}
	if (bare.yes > 0) != tc.repeats || hidden.yes != 0 {
		t.Fatalf("%s: %d rounds refused through RefusesAgain (%d hidden), want some: %v", what, bare.yes, hidden.yes, tc.repeats)
	}
	if bare.pf == nil {
		return
	}
	be, he := bare.pf.Exits(), hidden.pf.Exits()
	folded := be
	folded.Repeat, folded.RepeatAsked = be.Repeat+be.RepeatAsked, 0
	if be.RepeatAsked != int64(bare.yes) || folded != he {
		t.Fatalf("%s: rounds by exit %+v bare (%d asked), %+v hidden", what, be, bare.yes, he)
	}
}

// sameResult fails unless two Results agree field by field: the request
// lists by ID in order, everything else by value.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < g.NumField(); i++ {
		name := g.Type().Field(i).Name
		if rs, ok := g.Field(i).Interface().([]*request.Request); ok {
			ws := w.Field(i).Interface().([]*request.Request)
			if len(rs) != len(ws) {
				t.Fatalf("%s: Result.%s holds %d requests, twin %d", what, name, len(rs), len(ws))
			}
			for j := range rs {
				if rs[j].ID != ws[j].ID {
					t.Fatalf("%s: Result.%s[%d] is request %d, twin %d", what, name, j, rs[j].ID, ws[j].ID)
				}
			}
			continue
		}
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Fatalf("%s: Result.%s = %+v, twin %+v", what, name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
}

// sameRequest fails unless two twins of a request end alike: Generated,
// Evictions and the timing floats bit for bit.
func sameRequest(t *testing.T, what string, got, want *request.Request) {
	t.Helper()
	bits := func(r *request.Request) [4]uint64 {
		return [4]uint64{math.Float64bits(r.FirstTokenAt), math.Float64bits(r.LastEmitAt),
			math.Float64bits(r.MaxGap), math.Float64bits(r.EndedAt)}
	}
	if got.Generated != want.Generated || got.Evictions != want.Evictions || bits(got) != bits(want) {
		t.Fatalf("%s: request %d ends %s, twin %s", what, got.ID, stamp(got), stamp(want))
	}
}
