package engine_test

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

func rolePerf() *perf.Model {
	return perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
}

func roleEngine(t *testing.T, role engine.Role, capacity int) *engine.Engine {
	t.Helper()
	return engine.MustNew(engine.Config{
		Perf:             rolePerf(),
		Scheduler:        core.MustNewAggressive(0.95),
		Role:             role,
		CapacityOverride: capacity,
	})
}

func TestRoleValidation(t *testing.T) {
	cfg := engine.Config{
		Perf:            rolePerf(),
		Scheduler:       core.MustNewAggressive(0.95),
		Role:            engine.RolePrefillOnly,
		StaticBatchSize: 8,
	}
	if _, err := engine.New(cfg); err == nil {
		t.Fatal("prefill-only static batch accepted")
	}
	cfg.Role = engine.RoleDecodeOnly
	cfg.Scheduler = nil
	if _, err := engine.New(cfg); err == nil {
		t.Fatal("decode-only static batch accepted")
	}
	if engine.RoleMixed.String() != "mixed" || engine.RolePrefillOnly.String() != "prefill-only" ||
		engine.RoleDecodeOnly.String() != "decode-only" {
		t.Fatal("role strings wrong")
	}
	if engine.Role(9).String() == "" {
		t.Fatal("unknown role string empty")
	}
}

// TestPrefillOnlyHandsOffAtFirstToken: a prefill-only engine completes every
// multi-token request at exactly one generated token, frees its KV memory,
// and emits a handoff record; single-token requests finish in place.
func TestPrefillOnlyHandsOffAtFirstToken(t *testing.T) {
	e := roleEngine(t, engine.RolePrefillOnly, 50_000)
	var hooked []*request.Request
	e.AddExitHook(func(_ float64, r *request.Request) {
		if r.Outcome == request.OutcomePending {
			hooked = append(hooked, r)
		}
	})

	reqs := []*request.Request{
		request.New(1, 400, 200, 512, 0),
		request.New(2, 300, 1, 512, 0), // single-token: finishes on the prefill engine
		request.New(3, 500, 80, 512, 0.5),
	}
	e.SubmitAll(reqs)
	res := e.Run()

	if len(res.HandedOff) != 2 || len(hooked) != 2 {
		t.Fatalf("handed off %d (hook %d), want 2", len(res.HandedOff), len(hooked))
	}
	if len(res.Finished) != 1 || res.Finished[0].ID != 2 {
		t.Fatalf("finished %v, want the single-token request", res.Finished)
	}
	for _, r := range res.HandedOff {
		if r.Generated != 1 {
			t.Fatalf("request %d handed off with %d tokens, want 1", r.ID, r.Generated)
		}
		if r.PrefillDoneAt < 0 || r.FirstTokenAt != r.PrefillDoneAt {
			t.Fatalf("request %d handoff timestamps wrong: prefillDone=%v firstToken=%v",
				r.ID, r.PrefillDoneAt, r.FirstTokenAt)
		}
	}
	if res.DecodeSteps != 0 {
		t.Fatalf("prefill-only engine ran %d decode steps", res.DecodeSteps)
	}
	if e.Pool().UsedTokens() != 0 {
		t.Fatalf("prefill-only engine retains %d KV tokens after drain", e.Pool().UsedTokens())
	}
}

// TestMigratedRequestCompletesOnDecodeEngine pins the full handoff
// lifecycle on raw engines: prefill → RecordMigration (delivery delay) →
// SubmitMigrated → decode, with token conservation and TTFT measured from
// the user's arrival to the *delivery*, not prefill completion.
func TestMigratedRequestCompletesOnDecodeEngine(t *testing.T) {
	const transferDelay = 2.5
	pre := roleEngine(t, engine.RolePrefillOnly, 50_000)
	dec := engine.MustNew(engine.Config{
		Perf:             rolePerf(),
		Scheduler:        core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(7)}),
		Role:             engine.RoleDecodeOnly,
		CapacityOverride: 50_000,
	})

	r := rng.New(3)
	reqs := workload.Build(workload.ShareGPT, r, 40, 1, 512)
	workload.AssignPoissonArrivals(reqs, r, 10, 0)
	want := map[int64]int{}
	for _, q := range reqs {
		want[q.ID] = q.TrueOutputLen
	}

	pre.AddExitHook(func(now float64, q *request.Request) {
		if q.Outcome != request.OutcomePending {
			return
		}
		q.RecordMigration(now + transferDelay)
		dec.SubmitMigrated(q, now+transferDelay)
	})
	pre.SubmitAll(reqs)
	preRes := pre.Run()
	decRes := dec.Run()

	total := len(decRes.Finished) + len(preRes.Finished)
	if total != len(reqs) {
		t.Fatalf("finished %d of %d across the handoff", total, len(reqs))
	}
	for _, q := range decRes.Finished {
		if q.Generated != want[q.ID] {
			t.Fatalf("request %d generated %d, want %d", q.ID, q.Generated, want[q.ID])
		}
		if q.DeliveredAt < 0 || q.DeliveredAt-q.PrefillDoneAt < transferDelay-1e-9 {
			t.Fatalf("request %d delivery %v not %v after prefill %v",
				q.ID, q.DeliveredAt, transferDelay, q.PrefillDoneAt)
		}
		// TTFT is attributed to the delivery, which includes the transfer.
		if got, min := q.TTFT(), q.DeliveredAt-q.ArrivalTime; got != min {
			t.Fatalf("request %d TTFT %v, want delivery-based %v", q.ID, got, min)
		}
		if q.TTFT() <= q.PrefillDoneAt-q.ArrivalTime {
			t.Fatalf("request %d TTFT %v not beyond prefill-completion %v",
				q.ID, q.TTFT(), q.PrefillDoneAt-q.ArrivalTime)
		}
	}
}

// TestMigratedAdmissionPaysNoPrefill: the decode engine's admitting
// iteration for a migrated request must cost zero prefill compute (the KV
// arrived over the link), while a later eviction recomputes normally.
func TestMigratedAdmissionPaysNoPrefill(t *testing.T) {
	dec := engine.MustNew(engine.Config{
		Perf:             rolePerf(),
		Scheduler:        core.MustNewAggressive(0.95),
		Role:             engine.RoleDecodeOnly,
		CapacityOverride: 50_000,
	})
	var prefillDurs []float64
	dec.AddIterationHook(func(_ float64, it engine.Iteration) {
		if it.Kind == "prefill" {
			prefillDurs = append(prefillDurs, it.Duration)
		}
	})
	q := request.New(1, 4000, 100, 512, 0)
	q.EmitToken(1.0) // the prefill engine's token
	q.PrefillDoneAt = 1.0
	q.RecordMigration(1.5)
	dec.SubmitMigrated(q, 1.5)
	res := dec.Run()
	if len(res.Finished) != 1 || res.Finished[0].Generated != 100 {
		t.Fatalf("migrated request did not complete: %+v", res)
	}
	if len(prefillDurs) != 1 || prefillDurs[0] != 0 {
		t.Fatalf("migrated admission paid prefill time %v, want [0]", prefillDurs)
	}
	if q.Migrated {
		t.Fatal("Migrated flag survived admission")
	}
	// No phantom token accounting either: the prompt was encoded on the
	// prefill engine, this engine neither recomputed nor ingested it.
	if res.RecomputeTokens != 0 || res.InputTokens != 0 {
		t.Fatalf("migrated admission accounted input=%d recompute=%d tokens, want 0/0",
			res.InputTokens, res.RecomputeTokens)
	}
}

func TestSubmitMigratedRequiresRecord(t *testing.T) {
	dec := roleEngine(t, engine.RoleDecodeOnly, 10_000)
	defer func() {
		if recover() == nil {
			t.Fatal("SubmitMigrated without RecordMigration did not panic")
		}
	}()
	dec.SubmitMigrated(request.New(1, 100, 10, 64, 0), 1)
}
