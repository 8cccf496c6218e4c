package obs

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// spanHeader is the per-request span CSV schema. The five stage columns
// (hold..outage) partition the TTFT exactly; ttft is the request's own SLA
// clock (arrival → visible first token), −1 when no token became visible.
var spanHeader = []string{
	"id", "class", "arrival", "deadline", "outcome", "shed_where",
	"first_token", "finish", "ttft",
	"hold", "queue", "prefill", "wire", "outage",
	"pool", "replica", "flavor",
	"held", "migrations", "retries", "evictions", "chunks",
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
		rec := []string{
			strconv.FormatInt(r.ID, 10), r.Class,
			formatFloat(r.ArrivalTime), formatFloat(r.TTFTDeadline),
			r.Outcome.String(), s.ShedWhere,
			formatFloat(r.FirstTokenAt), formatFloat(r.FinishedAt), formatFloat(ttft),
			formatFloat(s.Hold), formatFloat(s.Queue), formatFloat(s.Prefill),
			formatFloat(s.Wire), formatFloat(s.Outage),
			strconv.Itoa(s.Pool), strconv.Itoa(s.Rep), s.Flavor,
			held, strconv.Itoa(s.Deliveries), strconv.Itoa(r.Retries), strconv.Itoa(r.Evictions),
			strconv.Itoa(s.Chunks),
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
}

// StageSum returns the decomposed TTFT (the sum of the stage columns).
func (s SpanRow) StageSum() float64 { return s.Hold + s.Queue + s.Prefill + s.Wire + s.Outage }

// ReadSpanCSV parses a span CSV produced by WriteSpanCSV.
func ReadSpanCSV(rd io.Reader) ([]SpanRow, error) {
	rows, err := csv.NewReader(rd).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("obs: empty span CSV")
	}
	if len(rows[0]) != len(spanHeader) || rows[0][0] != "id" {
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
	var s SpanRow
	if len(row) != len(spanHeader) {
		return s, fmt.Errorf("have %d fields, want %d", len(row), len(spanHeader))
	}
	var err error
	fail := func(e error) (SpanRow, error) { return s, e }
	if s.ID, err = strconv.ParseInt(row[0], 10, 64); err != nil {
		return fail(err)
	}
	s.Class = row[1]
	floats := []struct {
		dst *float64
		idx int
	}{
		{&s.Arrival, 2}, {&s.Deadline, 3},
		{&s.FirstToken, 6}, {&s.Finish, 7}, {&s.TTFT, 8},
		{&s.Hold, 9}, {&s.Queue, 10}, {&s.Prefill, 11}, {&s.Wire, 12}, {&s.Outage, 13},
	}
	s.Outcome, s.ShedWhere = row[4], row[5]
	for _, f := range floats {
		if *f.dst, err = strconv.ParseFloat(row[f.idx], 64); err != nil {
			return fail(err)
		}
	}
	if s.Pool, err = strconv.Atoi(row[14]); err != nil {
		return fail(err)
	}
	if s.Replica, err = strconv.Atoi(row[15]); err != nil {
		return fail(err)
	}
	s.Flavor = row[16]
	s.Held = row[17] == "1"
	if s.Migrations, err = strconv.Atoi(row[18]); err != nil {
		return fail(err)
	}
	if s.Retries, err = strconv.Atoi(row[19]); err != nil {
		return fail(err)
	}
	if s.Evictions, err = strconv.Atoi(row[20]); err != nil {
		return fail(err)
	}
	if s.Chunks, err = strconv.Atoi(row[21]); err != nil {
		return fail(err)
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
