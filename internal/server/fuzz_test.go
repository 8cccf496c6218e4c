package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzGenerateBody posts arbitrary bytes to /v1/generate on a running server:
// the answer is a 200 or a 4xx, nothing panics, and /v1/status still answers —
// so no body leaves the server's lock held. The seed corpus is under
// testdata/fuzz/FuzzGenerateBody.
func FuzzGenerateBody(f *testing.F) {
	h := newRunningServer(f, 0).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if rec.Code == http.StatusOK && !strings.HasSuffix(rec.Body.String(), "\"}\n") {
			t.Fatalf("200 without a closing summary line for body %q: %q", body, rec.Body)
		}
		st := httptest.NewRecorder()
		h.ServeHTTP(st, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
		if st.Code != http.StatusOK {
			t.Fatalf("/v1/status answers %d after body %q", st.Code, body)
		}
	})
}
