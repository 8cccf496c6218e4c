package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// canonicalBodies are bodies the live path sees every request: the
// benchmark's and loadgen's shapes, with and without spaces.
var canonicalBodies = []string{
	`{"input_tokens":128,"max_new_tokens":64,"output_tokens":64,"stream":false}`,
	`{"input_tokens":128,"max_new_tokens":64,"output_tokens":64,"stream":true}`,
	`{"input_tokens": 128, "max_new_tokens": 64}`,
	"{\n  \"input_tokens\": 1,\n  \"stream\": true\n}\n",
	`{}`,
}

// TestCanonicalBodiesDecodeInPlace: the bodies a client actually sends take
// the fast path and allocate nothing there.
func TestCanonicalBodiesDecodeInPlace(t *testing.T) {
	for _, body := range canonicalBodies {
		raw := []byte(body)
		if _, ok := decodeCanonical(raw); !ok {
			t.Errorf("%s: refused by the fast path", body)
			continue
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = decodeGenerate(raw) }); n != 0 {
			t.Errorf("%s: %.0f allocs to decode, want 0", body, n)
		}
	}
}

// decodeSeeds are the corners where a hand-written decoder and
// encoding/json could part: key order and repetition, number syntax at and
// past the fast path's digit bound, values of the wrong kind, keys that
// encoding/json matches and the fast path must not, whitespace, and bytes
// around the object.
func decodeSeeds() []string {
	seeds := append([]string(nil), canonicalBodies...)
	members := []string{`"input_tokens":8`, `"max_new_tokens":16`, `"output_tokens":4`, `"stream":true`}
	var permute func(prefix []string, rest []string)
	permute = func(prefix []string, rest []string) {
		if len(rest) == 0 {
			seeds = append(seeds, "{"+strings.Join(prefix, ",")+"}")
			return
		}
		for i := range rest {
			next := append(append([]string(nil), rest[:i]...), rest[i+1:]...)
			permute(append(prefix[:len(prefix):len(prefix)], rest[i]), next)
		}
	}
	permute(nil, members)
	seeds = append(seeds,
		`{"input_tokens":8,"input_tokens":9}`,
		`{"stream":true,"stream":false,"input_tokens":1}`,
		`{"input_tokens":-0}`,
		`{"input_tokens":-}`,
		`{"input_tokens":--1}`,
		`{"input_tokens":123456789012345678}`,
		`{"input_tokens":-123456789012345678}`,
		`{"input_tokens":1234567890123456789}`,
		`{"input_tokens":9999999999999999999}`,
		`{"input_tokens":99999999999999999999}`,
		`{"input_tokens":007}`,
		`{"input_tokens":-01}`,
		`{"input_tokens":0}`,
		`{"input_tokens":+1}`,
		`{"input_tokens":8.0}`,
		`{"input_tokens":8.5}`,
		`{"input_tokens":1e3}`,
		`{"input_tokens":1E3}`,
		`{"input_tokens":null}`,
		`{"stream":null}`,
		`{"stream":1}`,
		`{"stream":"true"}`,
		`{"stream":truex}`,
		`{"stream":tru}`,
		`{"input_tokens":true}`,
		`{"input_tokens":"8"}`,
		`{"INPUT_TOKENS":8,"output_tokens":2}`,
		`{"Input_Tokens":8}`,
		`{"input_tokens":8,"Input_tokens":9}`,
		`{"\u0069nput_tokens":8}`,
		`{"input_tokens\u0000":8}`,
		`{"input_tokens":8,"pad":"x"}`,
		`{"input_tokens":8,"extra":{"n":[1,2]}}`,
		`{"input_tokens":8,}`,
		`{,"input_tokens":8}`,
		`{"input_tokens" 8}`,
		`{"input_tokens":8 "stream":true}`,
		`{"input_tokens`,
		`{"input_tokens":8`,
		`{`,
		`}`,
		``,
		` `,
		`null`,
		`[]`,
		`8`,
		" \t\r\n{ \t\r\n\"input_tokens\" \t\r\n: \t\r\n8 \t\r\n, \t\r\n\"stream\"\t:\nfalse\r} \t\r\n",
		"{\"input_tokens\":8\f}",
		"{\"input_tokens\":8\u00a0}",
		"\ufeff{\"input_tokens\":8}",
		`{"input_tokens":8}{"input_tokens":9}`,
		`{"input_tokens":8} x`,
		"{\"input_tokens\":8}\x00",
	)
	return seeds
}

// FuzzDecodeGenerate holds the fast path to encoding/json: whatever body
// decodeCanonical accepts, json.Unmarshal accepts with the same struct, and
// decodeGenerate answers every body as json.Unmarshal does, error text
// included.
func FuzzDecodeGenerate(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var want generateRequest
		wantErr := json.Unmarshal(raw, &want)
		if fast, ok := decodeCanonical(raw); ok && (wantErr != nil || fast != want) {
			t.Fatalf("fast path decodes %q as %+v; json.Unmarshal: %+v, %v", raw, fast, want, wantErr)
		}
		got, err := decodeGenerate(raw)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && got != want) {
			t.Fatalf("decodeGenerate(%q) = %+v, %v; json.Unmarshal: %+v, %v", raw, got, err, want, wantErr)
		}
	})
}
