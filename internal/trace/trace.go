// Package trace exports and imports per-request records as CSV so experiment
// outputs can be inspected and plotted outside Go (fleetsim -requests writes
// them, traceview reads them).
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/lightllm-go/lightllm/internal/request"
)

// Record is the flat, serialisable view of one served request. Outcome,
// Deadline, Migrations, and Retries carry the admission/disaggregation/fault
// axes; Pool/Replica/Flavor identify the replica that served the request
// when the producer knows it (−1/"" otherwise — the request alone does not
// carry placement, so FromRequest leaves them unknown and cluster-aware
// exporters fill them from the observability spans).
type Record struct {
	ID         int64
	Class      string
	Arrival    float64
	Input      int
	Output     int
	TTFT       float64
	TPOT       float64
	MTPOT      float64
	Finish     float64
	Evictions  int
	Outcome    string
	Deadline   float64
	Pool       int
	Replica    int
	Flavor     string
	Migrations int
	Retries    int
}

// FromRequest converts a finished request into a Record.
func FromRequest(r *request.Request) Record {
	migrations := 0
	if r.DeliveredAt >= 0 {
		migrations = 1
	}
	return Record{
		ID:         r.ID,
		Class:      r.Class,
		Arrival:    r.ArrivalTime,
		Input:      r.InputLen,
		Output:     r.Generated,
		TTFT:       r.TTFT(),
		TPOT:       r.TPOT(),
		MTPOT:      r.MTPOT(),
		Finish:     r.FinishedAt,
		Evictions:  r.Evictions,
		Outcome:    r.Outcome.String(),
		Deadline:   r.TTFTDeadline,
		Pool:       -1,
		Replica:    -1,
		Migrations: migrations,
		Retries:    r.Retries,
	}
}

var csvHeader = []string{
	"id", "class", "arrival", "input_tokens", "output_tokens",
	"ttft", "tpot", "mtpot", "finish", "evictions",
	"outcome", "ttft_deadline", "pool", "replica", "flavor", "migrations", "retries",
}

// WriteCSV writes records with a header row.
func WriteCSV(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range recs {
		row := []string{
			strconv.FormatInt(r.ID, 10),
			r.Class,
			formatFloat(r.Arrival),
			strconv.Itoa(r.Input),
			strconv.Itoa(r.Output),
			formatFloat(r.TTFT),
			formatFloat(r.TPOT),
			formatFloat(r.MTPOT),
			formatFloat(r.Finish),
			strconv.Itoa(r.Evictions),
			r.Outcome,
			formatFloat(r.Deadline),
			strconv.Itoa(r.Pool),
			strconv.Itoa(r.Replica),
			r.Flavor,
			strconv.Itoa(r.Migrations),
			strconv.Itoa(r.Retries),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses records written by WriteCSV.
func ReadCSV(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	if len(rows[0]) != len(csvHeader) || rows[0][0] != "id" {
		return nil, fmt.Errorf("trace: unexpected CSV header %v", rows[0])
	}
	recs := make([]Record, 0, len(rows)-1)
	for i, row := range rows[1:] {
		rec, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", i+2, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func parseRow(row []string) (Record, error) {
	var rec Record
	if len(row) != len(csvHeader) {
		return rec, fmt.Errorf("expected %d fields, got %d", len(csvHeader), len(row))
	}
	var err error
	if rec.ID, err = strconv.ParseInt(row[0], 10, 64); err != nil {
		return rec, err
	}
	rec.Class = row[1]
	if rec.Arrival, err = strconv.ParseFloat(row[2], 64); err != nil {
		return rec, err
	}
	if rec.Input, err = strconv.Atoi(row[3]); err != nil {
		return rec, err
	}
	if rec.Output, err = strconv.Atoi(row[4]); err != nil {
		return rec, err
	}
	if rec.TTFT, err = strconv.ParseFloat(row[5], 64); err != nil {
		return rec, err
	}
	if rec.TPOT, err = strconv.ParseFloat(row[6], 64); err != nil {
		return rec, err
	}
	if rec.MTPOT, err = strconv.ParseFloat(row[7], 64); err != nil {
		return rec, err
	}
	if rec.Finish, err = strconv.ParseFloat(row[8], 64); err != nil {
		return rec, err
	}
	if rec.Evictions, err = strconv.Atoi(row[9]); err != nil {
		return rec, err
	}
	rec.Outcome = row[10]
	if rec.Deadline, err = strconv.ParseFloat(row[11], 64); err != nil {
		return rec, err
	}
	if rec.Pool, err = strconv.Atoi(row[12]); err != nil {
		return rec, err
	}
	if rec.Replica, err = strconv.Atoi(row[13]); err != nil {
		return rec, err
	}
	rec.Flavor = row[14]
	if rec.Migrations, err = strconv.Atoi(row[15]); err != nil {
		return rec, err
	}
	if rec.Retries, err = strconv.Atoi(row[16]); err != nil {
		return rec, err
	}
	return rec, nil
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
