package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/lightllm-go/lightllm/internal/request"
)

const tol = 1e-12

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// TestMonolithicDecomposition walks the simplest lifecycle — arrive, route,
// queue, admit, first token, finish — and checks every bucket.
func TestMonolithicDecomposition(t *testing.T) {
	c := NewCollector(1)
	r := request.New(1, 100, 10, 64, 0)
	c.Arrive(0, r)
	c.Place(0, r, 0, 2, "a100")
	c.Admit(1.5, r, 0, 2)
	r.EmitToken(2.75)
	c.FirstToken(2.75, r, 0, 2)
	for !r.Done() {
		r.EmitToken(3)
	}
	r.Finish(4)
	c.Finish(4, r, 0, 2)

	s := c.spans[1]
	if !approx(s.Hold, 0) || !approx(s.Queue, 1.5) || !approx(s.Prefill, 1.25) {
		t.Fatalf("buckets hold=%v queue=%v prefill=%v", s.Hold, s.Queue, s.Prefill)
	}
	if !approx(s.StageSum(), s.TTFT()) || !approx(s.StageSum(), r.TTFT()) {
		t.Fatalf("sum %v vs span ttft %v vs request ttft %v", s.StageSum(), s.TTFT(), r.TTFT())
	}
	if s.Pool != 0 || s.Rep != 2 || s.Flavor != "a100" {
		t.Fatalf("identity %d/%d/%q", s.Pool, s.Rep, s.Flavor)
	}
	if err := c.CheckDecomposition(tol); err != nil {
		t.Fatal(err)
	}
}

// TestDisaggregatedDecomposition covers the held + prefill + wire path: the
// prefill-side first token must not close the TTFT — delivery does.
func TestDisaggregatedDecomposition(t *testing.T) {
	c := NewCollector(1)
	r := request.New(7, 200, 4, 8, 0)
	r.TTFTDeadline = 6
	c.Arrive(0, r)
	c.Hold(0, r, 1)
	c.Release(1.0, r, 0)
	c.Place(1.0, r, 0, 0, "")
	c.Admit(1.25, r, 0, 0)
	r.EmitToken(2.25)
	c.FirstToken(2.25, r, 0, 0)
	c.XferBook(2.25, r, 0, 0, 1, 3, 4096, 2.30, 2.50)
	r.RecordMigration(2.50)
	c.XferDeliver(2.50, r, 1, 3)
	c.Admit(2.60, r, 1, 3) // migrated decode admission: post-TTFT, ignored

	s := c.spans[7]
	if !approx(s.Hold, 1.0) || !approx(s.Queue, 0.25) || !approx(s.Prefill, 1.0) || !approx(s.Wire, 0.25) {
		t.Fatalf("buckets hold=%v queue=%v prefill=%v wire=%v", s.Hold, s.Queue, s.Prefill, s.Wire)
	}
	if !approx(s.TTFT(), 2.50) || !approx(s.StageSum(), r.TTFT()) {
		t.Fatalf("ttft %v, sum %v, request ttft %v", s.TTFT(), s.StageSum(), r.TTFT())
	}
	if !s.HeldOnce || s.Deliveries != 1 || s.Pool != 1 || s.Rep != 3 {
		t.Fatalf("held=%v deliveries=%d pool=%d rep=%d", s.HeldOnce, s.Deliveries, s.Pool, s.Rep)
	}
	if err := c.CheckDecomposition(tol); err != nil {
		t.Fatal(err)
	}
}

// TestCrashReopensTTFT: a crash after the first token folds the streamed
// progress into the outage bucket and the decomposition stays exact against
// the final TTFT.
func TestCrashReopensTTFT(t *testing.T) {
	c := NewCollector(1)
	r := request.New(3, 100, 10, 64, 0)
	c.Arrive(0, r)
	c.Place(0, r, 0, 0, "")
	c.Admit(0.5, r, 0, 0)
	r.EmitToken(1.5)
	c.FirstToken(1.5, r, 0, 0)
	// 2.5 s of decode streaming, then the replica dies.
	c.Orphan(4.0, r)
	r.ResetForRetry()
	c.Arrive(4.0, r)
	c.Place(4.0, r, 0, 1, "")
	c.Admit(5.0, r, 0, 1)
	r.EmitToken(6.25)
	c.FirstToken(6.25, r, 0, 1)

	s := c.spans[3]
	if !approx(s.Outage, 2.5) {
		t.Fatalf("outage %v, want 2.5 (folded post-TTFT progress)", s.Outage)
	}
	if !approx(s.Queue, 0.5+1.0) || !approx(s.Prefill, 1.0+1.25) {
		t.Fatalf("queue %v prefill %v", s.Queue, s.Prefill)
	}
	if !approx(s.StageSum(), 6.25) || !approx(s.StageSum(), r.TTFT()) {
		t.Fatalf("sum %v, request ttft %v", s.StageSum(), r.TTFT())
	}
	if err := c.CheckDecomposition(tol); err != nil {
		t.Fatal(err)
	}
}

// TestClockRegressionClamps: an event carrying a timestamp behind the
// span's high-water mark charges zero time and does not rewind.
func TestClockRegressionClamps(t *testing.T) {
	c := NewCollector(1)
	r := request.New(9, 100, 10, 64, 0)
	c.Arrive(0, r)
	c.Place(0, r, 0, 0, "")
	c.Admit(2.0, r, 0, 0)
	c.Orphan(1.5, r) // fault event timestamped before the engine's clock
	r.ResetForRetry()
	c.Arrive(1.5, r)
	c.Place(1.5, r, 0, 1, "")
	c.Admit(3.0, r, 0, 1)
	r.EmitToken(4.0)
	c.FirstToken(4.0, r, 0, 1)

	s := c.spans[9]
	if !approx(s.StageSum(), s.TTFT()) {
		t.Fatalf("sum %v != span ttft %v after regression", s.StageSum(), s.TTFT())
	}
	if err := c.CheckDecomposition(tol); err != nil {
		t.Fatal(err)
	}
}

// TestShedTerminal: a shed request freezes; later events are ignored.
func TestShedTerminal(t *testing.T) {
	c := NewCollector(1)
	r := request.New(4, 100, 10, 64, 0)
	r.TTFTDeadline = 1
	c.Arrive(0, r)
	c.Hold(0, r, 1)
	r.Shed(2)
	c.Shed(2, r, ShedFront)
	c.Admit(3, r, 0, 0) // must be ignored
	s := c.spans[4]
	if !s.terminal() || s.ShedWhere != ShedFront || !approx(s.Hold, 2) {
		t.Fatalf("stage %v shedWhere %q hold %v", s.stage, s.ShedWhere, s.Hold)
	}
	if s.TTFTAt >= 0 {
		t.Fatalf("shed span has a TTFT")
	}
}

// TestSpanCSVRoundTrip: WriteSpanCSV → ReadSpanCSV is lossless for the
// fields the report reads, and the parsed rows satisfy the decomposition.
func TestSpanCSVRoundTrip(t *testing.T) {
	c := NewCollector(1)
	r := request.New(11, 300, 5, 8, 0.5)
	r.Class = "chat"
	r.TTFTDeadline = 8
	c.Arrive(0.5, r)
	c.Place(0.5, r, 0, 1, "h100")
	c.Admit(1.0, r, 0, 1)
	r.EmitToken(2.0)
	c.FirstToken(2.0, r, 0, 1)
	for !r.Done() {
		r.EmitToken(3)
	}
	r.Finish(3)
	c.Finish(3, r, 0, 1)

	var buf bytes.Buffer
	if err := c.WriteSpanCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadSpanCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	got := rows[0]
	if got.ID != 11 || got.Class != "chat" || got.Outcome != "completed" ||
		got.Flavor != "h100" || got.Pool != 0 || got.Replica != 1 {
		t.Fatalf("row %+v", got)
	}
	if !approx(got.StageSum(), got.TTFT) {
		t.Fatalf("parsed decomposition %v != ttft %v", got.StageSum(), got.TTFT)
	}
	if !approx(got.Queue, 0.5) || !approx(got.Prefill, 1.0) {
		t.Fatalf("parsed queue %v prefill %v", got.Queue, got.Prefill)
	}
}

// TestSpanCSVInvisibleFirstToken: a request that is held, prefilled, loses
// its KV transfer on the wire and is shed at the boundary never showed its
// user a token, although the prefill engine stamped FirstTokenAt. Its row
// must read ttft −1 (the header's contract), not the prefill-side clock —
// which the stage columns, wire and outage included, do not sum to.
func TestSpanCSVInvisibleFirstToken(t *testing.T) {
	c := NewCollector(1)
	r := request.New(81, 200, 4, 8, 0)
	r.TTFTDeadline = 6
	c.Arrive(0, r)
	c.Hold(0, r, 1)
	c.Release(1.0, r, 0)
	c.Place(1.0, r, 0, 0, "")
	c.Admit(1.25, r, 0, 0)
	r.EmitToken(2.25)
	c.FirstToken(2.25, r, 0, 0)
	c.XferBook(2.25, r, 0, 0, 1, 3, 4096, 2.30, 2.50)
	c.XferFail(2.50, r, 3.0)
	r.Shed(3.0)
	c.Shed(3.0, r, ShedBoundary)

	if r.TTFT() < 0 || r.Retries != 0 {
		t.Fatalf("scenario drifted: request ttft %v retries %d", r.TTFT(), r.Retries)
	}
	var buf bytes.Buffer
	if err := c.WriteSpanCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadSpanCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	got := rows[0]
	if got.TTFT != -1 {
		t.Fatalf("ttft column %v for a span with no visible token (stage sum %v, request clock %v), want -1",
			got.TTFT, got.StageSum(), r.TTFT())
	}
	if got.ShedWhere != ShedBoundary || !approx(got.Wire, 0.25) || !approx(got.Outage, 0.5) {
		t.Fatalf("row %+v", got)
	}
}

// TestReadSpanCSVRejectsGarbage guards the parser against truncated rows
// and foreign headers.
func TestReadSpanCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadSpanCSV(strings.NewReader("nope,nope\n1,2\n")); err == nil {
		t.Fatal("foreign header accepted")
	}
	var buf bytes.Buffer
	c := NewCollector(1)
	if err := c.WriteSpanCSV(&buf); err != nil {
		t.Fatal(err)
	}
	bad := buf.String() + "x,y,z,0,completed,,0,0,0,0,0,0,0,0,0,0,,0,0,0,0\n"
	if _, err := ReadSpanCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("garbage id accepted")
	}
}

// TestTimeSeriesRollup checks interval attribution and the planner
// carry-forward.
func TestTimeSeriesRollup(t *testing.T) {
	c := NewCollector(10)
	r := request.New(1, 100, 10, 64, 0)
	c.Arrive(0, r)
	c.Arrive(12, request.New(2, 100, 10, 64, 12))
	c.Iteration(5, 0, 0, "decode", 0.05, 8, 1<<20, 3)
	c.Iteration(6, 0, 0, "decode", 0.05, 12, 2<<20, 1)
	c.PlanPoint(5, 0, 4, 3)
	c.Iteration(15, 0, 0, "decode", 0.05, 2, 1<<10, 0)

	rows := c.Rows()
	byKey := map[[2]int]*TSRow{}
	for _, row := range rows {
		byKey[[2]int{int(row.T), row.Scope}] = row
	}
	front0 := byKey[[2]int{0, -1}]
	if front0 == nil || front0.Arrivals != 1 {
		t.Fatalf("front interval 0: %+v", front0)
	}
	pool0 := byKey[[2]int{0, 0}]
	if pool0 == nil || pool0.Iters != 2 || pool0.BatchPeak != 12 || pool0.KVBytesPeak != 2<<20 {
		t.Fatalf("pool interval 0: %+v", pool0)
	}
	if pool0.Target != 4 || pool0.Active != 3 {
		t.Fatalf("plan point not recorded: %+v", pool0)
	}
	pool1 := byKey[[2]int{10, 0}]
	if pool1 == nil || pool1.Target != 4 || pool1.Active != 3 {
		t.Fatalf("plan carry-forward missing: %+v", pool1)
	}

	var buf bytes.Buffer
	if err := c.WriteTimeSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "t,scope,arrivals") {
		t.Fatalf("header %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

// TestPerfettoValidJSON: the exporter emits parseable trace-event JSON with
// the required keys, slices for iterations, and flow pairs for handoffs.
func TestPerfettoValidJSON(t *testing.T) {
	c := NewCollector(1)
	r := request.New(5, 100, 4, 8, 0)
	c.Arrive(0, r)
	c.Place(0, r, 0, 0, "")
	c.Admit(0.5, r, 0, 0)
	c.Iteration(1.5, 0, 0, "prefill", 1.0, 1, 4096, 0)
	r.EmitToken(1.5)
	c.FirstToken(1.5, r, 0, 0)
	c.XferBook(1.5, r, 0, 0, 1, 2, 4096, 1.5, 1.7)
	r.RecordMigration(1.7)
	c.XferDeliver(1.7, r, 1, 2)
	c.Crash(3, 1, 2, 1)
	c.Recover(4, 1, 2)

	var buf bytes.Buffer
	if err := c.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	phases := map[string]int{}
	for _, ev := range parsed.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok || ev["name"] == nil {
			t.Fatalf("event missing ph/name: %v", ev)
		}
		phases[ph]++
	}
	for _, want := range []string{"M", "X", "i", "s", "f"} {
		if phases[want] == 0 {
			t.Fatalf("no %q events in trace (got %v)", want, phases)
		}
	}
}
