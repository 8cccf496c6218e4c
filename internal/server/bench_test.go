package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// generateBodies are the two shapes of reply the live path serves: the
// summary alone, and 64 token lines ahead of it.
var generateBodies = []struct{ name, body string }{
	{"plain", `{"input_tokens":128,"max_new_tokens":64,"output_tokens":64}`},
	{"stream64", `{"input_tokens":128,"max_new_tokens":64,"output_tokens":64,"stream":true}`},
}

// serveOnce posts one body straight into the handler, with no socket.
func serveOnce(tb testing.TB, h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	return rec
}

// BenchmarkServeGenerate is the live path without the socket: decode the
// body, submit, hand every token from the driver goroutine to the handler,
// encode the reply. scripts/bench.sh records it in BENCH_hotpath.json.
func BenchmarkServeGenerate(b *testing.B) {
	for _, c := range generateBodies {
		b.Run(c.name, func(b *testing.B) {
			h := newRunningServer(b, 0).Handler()
			serveOnce(b, h, c.body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOnce(b, h, c.body)
			}
		})
	}
}

// TestServeGenerateAllocs is the allocation guard on the live path: 28 per
// request of either kind, most of them the recorder and the request this
// test builds (a few more under -race, where sync.Pool drops what it is
// given). With a map, three boxed values and a flush for every token, a
// streamed reply used to cost 739.
func TestServeGenerateAllocs(t *testing.T) {
	const ceiling = 40.0
	for _, c := range generateBodies {
		h := newRunningServer(t, 0).Handler()
		serveOnce(t, h, c.body)
		got := testing.AllocsPerRun(100, func() { serveOnce(t, h, c.body) })
		t.Logf("%s: %.0f allocs per request", c.name, got)
		if got > ceiling {
			t.Errorf("%s: %.0f allocs per request, ceiling %.0f", c.name, got, ceiling)
		}
	}
}
