package obs

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"

	"github.com/lightllm-go/lightllm/internal/request"
)

// spanHeader is the per-request span CSV schema, the one per-request file a
// run writes. The five stage columns (hold..outage) partition the TTFT
// exactly; ttft is the request's own SLA clock (arrival → visible first
// token), −1 when no token became visible. The last four are the request's
// own sizes and decode pacing: prompt tokens, generated tokens, mean and
// maximum inter-token gap.
var spanHeader = []string{
	"id", "class", "arrival", "deadline", "outcome", "shed_where",
	"first_token", "finish", "ttft",
	"hold", "queue", "prefill", "wire", "outage",
	"pool", "replica", "flavor",
	"held", "migrations", "retries", "evictions", "chunks",
	"input_tokens", "output_tokens", "tpot", "mtpot",
}

// WriteSpanCSV writes one row per request in first-seen order.
func (c *Collector) WriteSpanCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(spanHeader); err != nil {
		return err
	}
	for _, s := range c.Spans() {
		r := s.R
		held := "0"
		if s.HeldOnce {
			held = "1"
		}
		// r.TTFT() alone is not enough: a prefill-side token that died on the
		// wire leaves FirstTokenAt set on a request whose user saw nothing.
		ttft := r.TTFT()
		if s.TTFTAt < 0 {
			ttft = -1
		}
		finishedAt := -1.0
		if r.Outcome == request.OutcomeCompleted {
			finishedAt = r.EndedAt
		}
		rec := []string{
			strconv.FormatInt(r.ID, 10), r.Class,
			formatFloat(r.ArrivalTime), formatFloat(r.TTFTDeadline),
			r.Outcome.String(), s.ShedWhere,
			formatFloat(r.FirstTokenAt), formatFloat(finishedAt), formatFloat(ttft),
			formatFloat(s.Hold), formatFloat(s.Queue), formatFloat(s.Prefill),
			formatFloat(s.Wire), formatFloat(s.Outage),
			strconv.Itoa(s.Pool), strconv.Itoa(s.Rep), s.Flavor,
			held, strconv.Itoa(s.Deliveries), strconv.Itoa(r.Retries), strconv.Itoa(r.Evictions),
			strconv.Itoa(s.Chunks),
			strconv.Itoa(r.InputLen), strconv.Itoa(r.Generated),
			formatFloat(r.TPOT()), formatFloat(r.MTPOT()),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSpanCSVFile writes the span table to a file.
func (c *Collector) WriteSpanCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteSpanCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SpanRow is one parsed span CSV row, for cmd/traceview and tests.
type SpanRow struct {
	ID                                 int64
	Class                              string
	Arrival, Deadline                  float64
	Outcome, ShedWhere                 string
	FirstToken, Finish, TTFT           float64
	Hold, Queue, Prefill, Wire, Outage float64
	Pool, Replica                      int
	Flavor                             string
	Held                               bool
	Migrations, Retries, Evictions     int
	Chunks                             int
	Input, Output                      int
	TPOT, MTPOT                        float64
}

// StageSum returns the decomposed TTFT (the sum of the stage columns).
func (s SpanRow) StageSum() float64 { return s.Hold + s.Queue + s.Prefill + s.Wire + s.Outage }

// ReadSpanCSV parses a span CSV produced by WriteSpanCSV. It rejects any
// other header and a negative token or count column.
func ReadSpanCSV(rd io.Reader) ([]SpanRow, error) {
	rows, err := csv.NewReader(rd).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("obs: empty span CSV")
	}
	if !slices.Equal(rows[0], spanHeader) {
		return nil, fmt.Errorf("obs: unrecognized span CSV header %q", rows[0])
	}
	out := make([]SpanRow, 0, len(rows)-1)
	for i, row := range rows[1:] {
		s, err := parseSpanRow(row)
		if err != nil {
			return nil, fmt.Errorf("obs: span row %d: %w", i+2, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// ReadSpanCSVFile parses a span CSV file.
func ReadSpanCSVFile(path string) ([]SpanRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSpanCSV(f)
}

func parseSpanRow(row []string) (SpanRow, error) {
	if len(row) != len(spanHeader) {
		return SpanRow{}, fmt.Errorf("have %d fields, want %d", len(row), len(spanHeader))
	}
	s := SpanRow{Class: row[1], Outcome: row[4], ShedWhere: row[5], Flavor: row[16], Held: row[17] == "1"}
	var err error
	if s.ID, err = strconv.ParseInt(row[0], 10, 64); err != nil {
		return s, err
	}
	for _, f := range []struct {
		dst *float64
		idx int
	}{
		{&s.Arrival, 2}, {&s.Deadline, 3},
		{&s.FirstToken, 6}, {&s.Finish, 7}, {&s.TTFT, 8},
		{&s.Hold, 9}, {&s.Queue, 10}, {&s.Prefill, 11}, {&s.Wire, 12}, {&s.Outage, 13},
		{&s.TPOT, 24}, {&s.MTPOT, 25},
	} {
		if *f.dst, err = strconv.ParseFloat(row[f.idx], 64); err != nil {
			return s, err
		}
	}
	// Pool and replica read −1 for a request never placed; every other
	// integer column counts something.
	for _, f := range []struct {
		dst   *int
		idx   int
		count bool
	}{
		{&s.Pool, 14, false}, {&s.Replica, 15, false},
		{&s.Migrations, 18, true}, {&s.Retries, 19, true}, {&s.Evictions, 20, true}, {&s.Chunks, 21, true},
		{&s.Input, 22, true}, {&s.Output, 23, true},
	} {
		if *f.dst, err = strconv.Atoi(row[f.idx]); err != nil {
			return s, err
		}
		if f.count && *f.dst < 0 {
			return s, fmt.Errorf("negative %s %d", spanHeader[f.idx], *f.dst)
		}
	}
	return s, nil
}

// CheckDecomposition verifies the exact-decomposition invariant over every
// assembled span and returns the first violation (nil if all hold): for a
// span whose first token became visible, the stage buckets must sum to the
// decomposed TTFT, and for never-retried requests that must equal the
// request's own TTFT clock.
func (c *Collector) CheckDecomposition(tol float64) error {
	for _, s := range c.Spans() {
		if s.TTFTAt < 0 {
			continue
		}
		if d := s.StageSum() - s.TTFT(); d > tol || d < -tol {
			return fmt.Errorf("obs: request %d: stage sum %.9f != decomposed ttft %.9f",
				s.R.ID, s.StageSum(), s.TTFT())
		}
		if s.R.Retries == 0 && s.R.FirstTokenAt >= 0 {
			if d := s.StageSum() - s.R.TTFT(); d > tol || d < -tol {
				return fmt.Errorf("obs: request %d: stage sum %.9f != request TTFT %.9f",
					s.R.ID, s.StageSum(), s.R.TTFT())
			}
		}
	}
	return nil
}
