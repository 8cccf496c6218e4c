package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lightllm-go/lightllm/internal/request"
)

// tokenLine is a streamed token line as a struct. The encoder the append
// functions replaced wrote a map with these keys, which sorts to this order.
type tokenLine struct {
	ID    int64   `json:"id"`
	T     float64 `json:"t"`
	Token int     `json:"token"`
}

func TestLinesMatchEncodingJSON(t *testing.T) {
	floats := []float64{0, 1, 3, 1e-7, 0.1, 1e21, 123456789.25, -1, 1e-6, 9.9e-7, 1e20, 2.5e-12, 0.216697332254189, 5e-324, 1.7976931348623157e308}
	for i, f := range floats {
		id, token := int64(1)<<uint(4*i), 1+i*1000
		got := appendTokenLine(nil, id, token, f)
		typed, err := json.Marshal(tokenLine{ID: id, T: f, Token: token})
		if err != nil {
			t.Fatal(err)
		}
		boxed, err := json.Marshal(map[string]interface{}{"id": id, "token": token, "t": f})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(typed)+"\n" || string(got) != string(boxed)+"\n" {
			t.Errorf("token line %q, encoding/json writes %q (struct) and %q (map)", got, typed, boxed)
		}

		sum := generateResponse{ID: id, OutputTokens: token, TTFT: f, TPOT: -f, MTPOT: f / 3, Latency: f / 7,
			Evictions: i, Status: status(request.Outcome(1 + i%4))}
		got = appendSummaryLine(nil, sum)
		want, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want)+"\n" {
			t.Errorf("summary line %q, encoding/json writes %q", got, want)
		}
	}
}

// countingWriter is a ResponseWriter that counts what a socket would see.
type countingWriter struct {
	header          http.Header
	body            bytes.Buffer
	writes, flushes int
}

func (w *countingWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}
func (w *countingWriter) WriteHeader(int) {}
func (w *countingWriter) Write(b []byte) (int, error) {
	w.writes++
	return w.body.Write(b)
}
func (w *countingWriter) Flush() { w.flushes++ }

// TestDrainIsOneWrite fills a mailbox by hand — no driver runs — and checks
// that whatever is in it when the handler looks leaves in one piece: one
// Write and no Flush, since that Write carries the summary line and net/http
// flushes it when the handler returns.
func TestDrainIsOneWrite(t *testing.T) {
	srv := newServer(t, 0)
	for _, k := range []int{0, 1, 64, 5000} {
		r := request.New(int64(k+1), 10, k+1, k+1, 0)
		mb := mailboxes.Get().(*mailbox)
		mb.tokens = true
		srv.mu.Lock()
		srv.subs[r.ID] = mb
		for i := 1; i <= k; i++ {
			srv.notify(r.ID, event{kind: evToken, index: i, t: float64(i) / 8})
		}
		srv.notify(r.ID, event{kind: evEnd})
		left := len(srv.subs)
		srv.mu.Unlock()
		if left != 0 {
			t.Fatalf("k=%d: %d subscriptions after the terminal event", k, left)
		}

		w := &countingWriter{}
		srv.reply(w, httptest.NewRequest(http.MethodPost, "/v1/generate", nil), r, mb)
		lines := strings.Split(strings.TrimSuffix(w.body.String(), "\n"), "\n")
		if w.writes != 1 || w.flushes != 0 || len(lines) != k+1 {
			t.Fatalf("k=%d: %d writes, %d flushes, %d lines; want 1, 0, %d", k, w.writes, w.flushes, len(lines), k+1)
		}
		if k > 0 && lines[k-1] != fmt.Sprintf(`{"id":%d,"t":%v,"token":%d}`, r.ID, float64(k)/8, k) {
			t.Fatalf("k=%d: last token line %q", k, lines[k-1])
		}
		var sum generateResponse
		if err := json.Unmarshal([]byte(lines[k]), &sum); err != nil || sum.ID != r.ID || sum.Status != "ok" {
			t.Fatalf("k=%d: summary %q: %v", k, lines[k], err)
		}
		mb.recycle()
	}
}

// TestPlainReplySkipsTokens: a plain request's mailbox holds the terminal
// event and nothing else, however many tokens the engine produced.
func TestPlainReplySkipsTokens(t *testing.T) {
	srv := newServer(t, 0)
	mb := mailboxes.Get().(*mailbox)
	srv.submit(generateRequest{InputTokens: 50, MaxNewTokens: 64, OutputTokens: 40}, mb)
	srv.mu.Lock()
	for !srv.eng.Idle() {
		srv.eng.Step()
	}
	events := append([]event(nil), mb.events...)
	srv.mu.Unlock()
	if len(events) != 1 || events[0].kind != evEnd {
		t.Fatalf("plain mailbox holds %+v, want the finish alone", events)
	}
}

// readLine reads one line of a streamed reply.
func readLine(t *testing.T, br *bufio.Reader) string {
	t.Helper()
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read line: %v (got %q)", err, line)
	}
	return line
}

// TestPacedStreamFlushesEachToken: with the driver sleeping ~100 ms between
// steps, the client holds the first token's line while the engine has still
// produced one token only — a drain never waits for company.
func TestPacedStreamFlushesEachToken(t *testing.T) {
	srv, ts := newTestServer(t, 0.1)
	resp := postJSON(t, ts.URL+"/v1/generate", map[string]interface{}{
		"input_tokens": 64, "max_new_tokens": 8, "output_tokens": 4, "stream": true,
	})
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var first tokenLine
	if err := json.Unmarshal([]byte(readLine(t, br)), &first); err != nil || first.Token != 1 {
		t.Fatalf("first line %+v: %v", first, err)
	}
	srv.mu.Lock()
	var generated []int
	for _, r := range srv.eng.RunningRequests() {
		generated = append(generated, r.Generated)
	}
	srv.mu.Unlock()
	if len(generated) != 1 || generated[0] != 1 {
		t.Fatalf("first line read with the engine at %v generated tokens; want one request at 1", generated)
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(rest, []byte("\n")); n != 4 {
		t.Fatalf("%d lines after the first, want 3 tokens and the summary: %q", n, rest)
	}
}

// flushLog wraps a live ResponseWriter and logs its Writes ("W") and Flushes
// ("F") in order.
type flushLog struct {
	http.ResponseWriter
	ops strings.Builder
}

func (w *flushLog) Write(b []byte) (int, error) {
	w.ops.WriteByte('W')
	return w.ResponseWriter.Write(b)
}

func (w *flushLog) Flush() {
	w.ops.WriteByte('F')
	w.ResponseWriter.(http.Flusher).Flush()
}

// TestStreamFlushesAllButTheLastWrite: a paced stream goes out in several
// Writes, and every one but the last — the one carrying the summary line,
// which net/http flushes when the handler returns — is followed by a Flush.
// The client reads the token lines in order, then the summary.
func TestStreamFlushesAllButTheLastWrite(t *testing.T) {
	srv := newRunningServer(t, 0.1)
	logs := make(chan string, 1)
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl := &flushLog{ResponseWriter: w}
		h.ServeHTTP(fl, r)
		logs <- fl.ops.String()
	}))
	t.Cleanup(ts.Close)
	const tokens = 4
	resp := postJSON(t, ts.URL+"/v1/generate", map[string]interface{}{
		"input_tokens": 64, "max_new_tokens": 8, "output_tokens": tokens, "stream": true,
	})
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	ops := <-logs
	writes := strings.Count(ops, "W")
	if writes < 2 || ops != strings.Repeat("WF", writes-1)+"W" {
		t.Fatalf("writes and flushes %q; want a Flush after every Write but the last, over several Writes", ops)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != tokens+1 {
		t.Fatalf("%d lines, want %d tokens and the summary: %q", len(lines), tokens, body)
	}
	var id int64
	for i, l := range lines[:tokens] {
		var tl tokenLine
		if err := json.Unmarshal([]byte(l), &tl); err != nil || tl.Token != i+1 || i > 0 && tl.ID != id {
			t.Fatalf("line %d %q: %+v, %v", i, l, tl, err)
		}
		id = tl.ID
		if want := string(appendTokenLine(nil, tl.ID, tl.Token, tl.T)); l+"\n" != want {
			t.Fatalf("line %d %q, want %q", i, l, want)
		}
	}
	var sum generateResponse
	if err := json.Unmarshal([]byte(lines[tokens]), &sum); err != nil || sum.ID != id || sum.OutputTokens != tokens || sum.Status != "ok" {
		t.Fatalf("summary %q: %+v, %v", lines[tokens], sum, err)
	}
}

func TestConcurrentMixedClients(t *testing.T) {
	srv, ts := newTestServer(t, 0)
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stream, out := i%2 == 1, 10+i
			b, _ := json.Marshal(map[string]interface{}{
				"input_tokens": 50 + i, "max_new_tokens": 64, "output_tokens": out, "stream": stream,
			})
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
			want := 1
			if stream {
				want += out
			}
			var sum generateResponse
			if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
				errs <- fmt.Errorf("client %d: summary %q: %v", i, lines[len(lines)-1], err)
				return
			}
			if len(lines) != want || sum.OutputTokens != out || sum.Status != "ok" {
				errs <- fmt.Errorf("client %d (stream %t): %d lines, summary %+v; want %d lines and %d tokens", i, stream, len(lines), sum, want, out)
			}
			for j, line := range lines[:len(lines)-1] {
				var tok tokenLine
				if err := json.Unmarshal(line, &tok); err != nil || tok.Token != j+1 || tok.ID != sum.ID {
					errs <- fmt.Errorf("client %d: line %d is %q", i, j, line)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.subs) != 0 {
		t.Errorf("%d subscriptions left after every reply", len(srv.subs))
	}
}

// TestClientDisconnectUnsubscribes: a client that goes away mid-stream gets
// its handler back within the pace of a step, and no subscription stays.
func TestClientDisconnectUnsubscribes(t *testing.T) {
	srv := newRunningServer(t, 0.1)
	returned := make(chan struct{})
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h.ServeHTTP(w, req)
		close(returned)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/generate",
		strings.NewReader(`{"input_tokens":64,"max_new_tokens":2000,"output_tokens":2000,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readLine(t, bufio.NewReader(resp.Body))
	cancel()
	resp.Body.Close()

	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still running 10 s after its client went away")
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.subs) != 0 {
		t.Fatalf("%d subscriptions left behind", len(srv.subs))
	}
	if srv.eng.RunningLen() != 1 {
		t.Fatalf("running = %d: the request should still hold its batch slot (no engine.Cancel yet)", srv.eng.RunningLen())
	}
}

// TestHostileBodies: bodies no schedule could serve, or that are not one
// JSON object, are refused, and the server answers the next caller.
func TestHostileBodies(t *testing.T) {
	srv, ts := newTestServer(t, 0)
	over := srv.capacity + 1
	cases := []struct {
		name, body string
		want       int
		status     string // of the summary, for a 200
	}{
		{"huge max_new_tokens", `{"input_tokens":8,"max_new_tokens":4611686018427387904}`, http.StatusBadRequest, ""},
		{"max_new_tokens over the pool", fmt.Sprintf(`{"input_tokens":8,"max_new_tokens":%d}`, over), http.StatusBadRequest, ""},
		{"input_tokens over the pool", fmt.Sprintf(`{"input_tokens":%d,"max_new_tokens":8}`, over), http.StatusBadRequest, ""},
		{"beyond int64", `{"input_tokens":8,"max_new_tokens":99999999999999999999}`, http.StatusBadRequest, ""},
		{"float", `{"input_tokens":8.5}`, http.StatusBadRequest, ""},
		{"nested", `{"input_tokens":{"n":8}}`, http.StatusBadRequest, ""},
		{"truncated", `{"input_tokens":8,"max_new`, http.StatusBadRequest, ""},
		{"trailing garbage", `{"input_tokens":8,"output_tokens":2}{"input_tokens":9}`, http.StatusBadRequest, ""},
		{"empty", ``, http.StatusBadRequest, ""},
		{"oversized", `{"input_tokens":8,"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge, ""},
		{"negative max_new_tokens takes the default", `{"input_tokens":8,"max_new_tokens":-5,"output_tokens":2}`, http.StatusOK, "ok"},
		{"a prompt the pool can hold but the scheduler never admits", fmt.Sprintf(`{"input_tokens":%d,"output_tokens":2}`, srv.capacity), http.StatusOK, "failed"},
		// Where the canonical fast path and json.Unmarshal could part: keys
		// in another case and unknown keys go to Unmarshal, and a repeated
		// key, decoded in place, keeps its last value as Unmarshal does.
		{"keys matched without case", `{"INPUT_TOKENS":8,"output_tokens":2}`, http.StatusOK, "ok"},
		{"an unknown key", `{"input_tokens":8,"output_tokens":2,"temperature":0.7}`, http.StatusOK, "ok"},
		{"a repeated key takes its last value", fmt.Sprintf(`{"input_tokens":%d,"output_tokens":2,"input_tokens":8}`, over), http.StatusOK, "ok"},
		{"a repeated key takes its last value, over the pool", fmt.Sprintf(`{"input_tokens":8,"output_tokens":2,"input_tokens":%d}`, over), http.StatusBadRequest, ""},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, reply)
		}
		var sum generateResponse
		if c.status != "" && (json.Unmarshal(reply, &sum) != nil || sum.Status != c.status) {
			t.Errorf("%s: reply %s, want status %q", c.name, reply, c.status)
		}
	}

	// A chunked body, whose length the server learns only by reading it,
	// meets the same limit: the wrapper hides the length from http.Post,
	// which then sends the body with no Content-Length.
	chunked := struct{ io.Reader }{strings.NewReader(`{"input_tokens":8,"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`)}
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", chunked)
	if err != nil {
		t.Fatalf("chunked oversized: %v", err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked oversized: status %d, want %d (%s)", resp.StatusCode, http.StatusRequestEntityTooLarge, reply)
	}

	resp = postJSON(t, ts.URL+"/v1/generate", map[string]interface{}{"input_tokens": 10, "output_tokens": 3})
	var sum generateResponse
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil || sum.OutputTokens != 3 {
		t.Fatalf("generate after the hostile bodies: %+v, %v", sum, err)
	}
	resp.Body.Close()
	st, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if st.StatusCode != http.StatusOK {
		t.Fatalf("status after the hostile bodies: %d", st.StatusCode)
	}
}
