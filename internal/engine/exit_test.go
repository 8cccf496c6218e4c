package engine

import (
	"slices"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
)

// exitLog is a recorder that logs its terminal events for one request into
// the log the exit hook writes too, so a test reads their order.
type exitLog struct {
	*obs.Collector
	id     int64
	events []string
}

func (l *exitLog) note(r *request.Request, ev string) {
	if r.ID == l.id {
		l.events = append(l.events, ev)
	}
}

func (l *exitLog) Finish(at float64, r *request.Request, pool, rep int) {
	l.note(r, "finish")
	l.Collector.Finish(at, r, pool, rep)
}

func (l *exitLog) Drop(at float64, r *request.Request, pool, rep int) {
	l.note(r, "drop")
	l.Collector.Drop(at, r, pool, rep)
}

func (l *exitLog) Fail(at float64, r *request.Request, pool, rep int) {
	l.note(r, "fail")
	l.Collector.Fail(at, r, pool, rep)
}

// TestExitHook pins the engine's one way out. Every exit — a completion on
// a mixed engine, a QueueTimeout drop, an unservable failure, a prefill-only
// handoff and a prefill-only one-token completion — fires the exit hook
// once, after the request's Outcome and EndedAt are set (a handoff stays
// pending, with PrefillDoneAt set) and with ReleasedLastStep already true;
// the recorder then hears Finish, Drop or Fail, and nothing for a handoff.
func TestExitHook(t *testing.T) {
	prefillOnly := Config{Scheduler: core.NewOracle(), Role: RolePrefillOnly, CapacityOverride: 50_000}
	for _, tc := range []struct {
		name string
		cfg  Config
		reqs []*request.Request
		id   int64 // the request whose exit is checked
		want request.Outcome
		rec  string // the recorder's event after the hook; "" for none
	}{
		{"mixed finish", Config{Scheduler: core.NewOracle(), CapacityOverride: 1000},
			[]*request.Request{request.New(1, 50, 3, 10, 0)}, 1, request.OutcomeCompleted, "finish"},
		{"queue-timeout drop", Config{Scheduler: core.MustNewConservative(1.0), CapacityOverride: 150, QueueTimeout: 0.5},
			[]*request.Request{request.New(1, 100, 60, 49, 0), request.New(2, 100, 10, 49, 0)}, 2, request.OutcomeDropped, "drop"},
		{"unservable fail", Config{Scheduler: core.MustNewConservative(1.0), CapacityOverride: 100},
			[]*request.Request{request.New(1, 500, 5, 10, 0)}, 1, request.OutcomeFailed, "fail"},
		{"prefill-only handoff", prefillOnly,
			[]*request.Request{request.New(1, 400, 200, 512, 0)}, 1, request.OutcomePending, ""},
		{"prefill-only one-token finish", prefillOnly,
			[]*request.Request{request.New(1, 300, 1, 512, 0)}, 1, request.OutcomeCompleted, "finish"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Perf = testPerf(t)
			e, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			log := &exitLog{Collector: obs.NewCollector(0), id: tc.id}
			e.SetRecorder(log, 0, 0)
			e.AddExitHook(func(now float64, r *request.Request) {
				if r.ID != tc.id {
					return
				}
				ended := r.EndedAt == now
				if r.Outcome == request.OutcomePending {
					ended = r.EndedAt == -1 && r.PrefillDoneAt == now
				}
				if r.Outcome != tc.want || !ended || !e.ReleasedLastStep() {
					t.Errorf("exit hook at %v saw outcome %v ended at %v (prefill done at %v), released %v; want %v",
						now, r.Outcome, r.EndedAt, r.PrefillDoneAt, e.ReleasedLastStep(), tc.want)
				}
				log.events = append(log.events, "exit")
			})
			e.SubmitAll(tc.reqs)
			e.Run()
			want := []string{"exit"}
			if tc.rec != "" {
				want = append(want, tc.rec)
			}
			if !slices.Equal(log.events, want) {
				t.Fatalf("request %d left with %v, want %v", tc.id, log.events, want)
			}
		})
	}
}

// TestExitHookSeesSurvivors pins when a finisher leaves the batch: before
// any exit hook of its step runs. Six requests finish three at a time; a hook
// that reads the batch at each exit sees the survivors only, on the coasting
// engine, on its per-token twin (a token hook) and on a chunked one alike.
func TestExitHookSeesSurvivors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		token bool
	}{
		{"coasting", Config{}, false},
		{"per-token", Config{}, true},
		{"chunked", Config{Chunked: ChunkConfig{Enabled: true}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Perf, tc.cfg.Scheduler, tc.cfg.CapacityOverride = testPerf(t), core.NewOracle(), 10_000
			e, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.token {
				e.AddTokenHook(func(float64, *request.Request) {})
			}
			var seen [][]int64
			e.AddExitHook(func(_ float64, r *request.Request) {
				var ids []int64
				for _, q := range e.RunningRequests() {
					ids = append(ids, q.ID)
				}
				seen = append(seen, ids)
			})
			for id := int64(1); id <= 6; id++ {
				out := 14
				if id%2 == 1 {
					out = 4
				}
				e.Submit(request.New(id, 40, out, 32, 0))
			}
			res := e.Run()
			if coasts := tc.name == "coasting"; len(res.Finished) != 6 || coasts != (res.CoastedSteps == res.DecodeSteps) {
				t.Fatalf("%d finished, %d of %d decode steps coasted; want 6, and all of them only when coasting",
					len(res.Finished), res.CoastedSteps, res.DecodeSteps)
			}
			survivors := []int64{2, 4, 6}
			want := [][]int64{survivors, survivors, survivors, nil, nil, nil}
			if !slices.EqualFunc(seen, want, slices.Equal) {
				t.Fatalf("exit hooks saw the batch %v, want %v", seen, want)
			}
		})
	}
}
