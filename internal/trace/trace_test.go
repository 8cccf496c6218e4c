package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/lightllm-go/lightllm/internal/request"
)

func sample() []Record {
	return []Record{
		{ID: 1, Class: "ShareGPT", Arrival: 0.5, Input: 120, Output: 300, TTFT: 0.8, TPOT: 0.05, MTPOT: 0.2, Finish: 16.3, Evictions: 0,
			Outcome: "completed", Deadline: 6.5, Pool: 1, Replica: 2, Flavor: "a100", Migrations: 1, Retries: 0},
		{ID: 2, Class: "Distribution-1", Arrival: 1.25, Input: 2048, Output: 4096, TTFT: 2.5, TPOT: 0.06, MTPOT: 4.75, Finish: 250.1, Evictions: 3,
			Outcome: "shed", Deadline: 7.25, Pool: -1, Replica: -1, Migrations: 0, Retries: 2},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestCSVHeaderWritten(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasPrefix(first, "id,class,arrival") {
		t.Fatalf("header = %q", first)
	}
}

const header = "id,class,arrival,input_tokens,output_tokens,ttft,tpot,mtpot,finish,evictions,outcome,ttft_deadline,pool,replica,flavor,migrations,retries\n"

// garbage holds inputs ReadCSV must reject.
var garbage = []struct{ name, in string }{
	{"empty input", ""},
	{"wrong header", "a,b\n1,2\n"},
	{"bad id", header + "notanint,x,0,1,2,3,4,5,6,7,completed,8,0,0,,0,0\n"},
	{"pre-extension row width", header + "1,x,0,1,2,3,4,5,6,7\n"},
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	for _, g := range garbage {
		if _, err := ReadCSV(strings.NewReader(g.in)); err == nil {
			t.Fatalf("%s accepted", g.name)
		}
	}
}

// recordBits is a comparable view of a Record with every float as its
// IEEE-754 bits, so a NaN matches itself and -0 does not match 0.
type recordBits struct {
	Record
	floats [6]uint64
}

func bitsOf(r Record) recordBits {
	f := [6]uint64{}
	for i, v := range []*float64{&r.Arrival, &r.TTFT, &r.TPOT, &r.MTPOT, &r.Finish, &r.Deadline} {
		f[i] = math.Float64bits(*v)
		*v = 0
	}
	return recordBits{r, f}
}

// FuzzReadCSV holds the parser traceview runs on files from outside the
// program: ReadCSV never panics, and whatever it accepts comes back as the
// same records, float bits included, after WriteCSV → ReadCSV.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	for _, g := range garbage {
		f.Add(g.in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, recs); err != nil {
			t.Fatalf("writing %d accepted records: %v", len(recs), err)
		}
		again, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("rereading accepted records: %v\n%s", err, out.String())
		}
		if len(again) != len(recs) {
			t.Fatalf("%d records reread as %d", len(recs), len(again))
		}
		for i := range recs {
			if bitsOf(again[i]) != bitsOf(recs[i]) {
				t.Fatalf("record %d: reread %+v, want %+v", i, again[i], recs[i])
			}
		}
	})
}

func TestFromRequest(t *testing.T) {
	r := request.New(7, 100, 3, 50, 2.0)
	r.Class = "test"
	r.EmitToken(3.0)
	r.EmitToken(3.5)
	r.EmitToken(4.5)
	r.Finish(4.5)
	r.Evictions = 1
	rec := FromRequest(r)
	if rec.ID != 7 || rec.Class != "test" || rec.Input != 100 || rec.Output != 3 {
		t.Fatalf("rec = %+v", rec)
	}
	if rec.TTFT != 1.0 || rec.MTPOT != 1.0 || rec.Finish != 4.5 || rec.Evictions != 1 {
		t.Fatalf("timings = %+v", rec)
	}
	if rec.Outcome != "completed" || rec.Pool != -1 || rec.Replica != -1 || rec.Migrations != 0 {
		t.Fatalf("extension fields = %+v", rec)
	}
}

func TestFromRequestCarriesFaultAxes(t *testing.T) {
	r := request.New(9, 50, 2, 10, 1.0)
	r.TTFTDeadline = 5.0
	r.EmitToken(2.0)
	r.RecordMigration(2.5)
	r.EmitToken(3.0)
	r.Retries = 1
	r.Finish(3.0)
	rec := FromRequest(r)
	if rec.Outcome != "completed" || rec.Deadline != 5.0 || rec.Migrations != 1 || rec.Retries != 1 {
		t.Fatalf("fault axes = %+v", rec)
	}
}
