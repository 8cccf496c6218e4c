package engine

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
)

func newStaticEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{
		Perf:             testPerf(t),
		StaticBatchSize:  2,
		CapacityOverride: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestStaticBatchRecordsLifecycle: a static batch reports its first tokens
// and finishes through the same functions as the continuous paths, so every
// finished request ends in a span whose first token is the request's own.
func TestStaticBatchRecordsLifecycle(t *testing.T) {
	e := newStaticEngine(t)
	col := obs.NewCollector(0)
	e.SetRecorder(col, 3, 5)
	for i := int64(1); i <= 5; i++ {
		e.Submit(request.New(i, 40+int(i)*10, int(i)*3, 20, float64(i)))
	}
	res := e.Run()
	if len(res.Finished) != 5 {
		t.Fatalf("finished %d of 5", len(res.Finished))
	}
	spans := map[int64]*obs.Span{}
	for _, s := range col.Spans() {
		spans[s.R.ID] = s
	}
	for _, r := range res.Finished {
		s := spans[r.ID]
		if s == nil {
			t.Fatalf("request %d finished without a span", r.ID)
		}
		if s.TTFTAt != r.FirstTokenAt || s.Pool != 3 || s.Rep != 5 {
			t.Errorf("request %d: span first token %v on %d/%d, request's %v on 3/5",
				r.ID, s.TTFTAt, s.Pool, s.Rep, r.FirstTokenAt)
		}
	}
	var firsts, finishes int
	for _, row := range col.Rows() {
		firsts += row.FirstTokens
		finishes += row.Finishes
	}
	if firsts != 5 || finishes != 5 {
		t.Fatalf("recorded %d first tokens and %d finishes, want 5 each", firsts, finishes)
	}
}

// TestStaticBatchWaitsForDueTime: a static engine idles to a submission's due
// time, not to its ArrivalTime — a request placed with SubmitAt keeps its
// user's arrival for SLA accounting and must still enter the queue.
func TestStaticBatchWaitsForDueTime(t *testing.T) {
	e := newStaticEngine(t)
	e.Submit(request.New(1, 50, 5, 20, 0))
	e.Run()
	r := request.New(2, 50, 5, 20, 0)
	due := e.Clock() + 10
	e.SubmitAt(r, due)
	steps := 0
	for e.Step() {
		if steps++; steps > 100 {
			t.Fatalf("no drain after %d steps: clock %v, %d waiting", steps, e.Clock(), e.WaitingLen())
		}
	}
	if r.Outcome != request.OutcomeCompleted || r.FirstTokenAt < due {
		t.Fatalf("request %v, first token at %v, due %v", r.Outcome, r.FirstTokenAt, due)
	}
}
