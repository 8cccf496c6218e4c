package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// newServer builds a server over a 7B/A100 engine; its driver is not started.
func newServer(t testing.TB, timescale float64) *Server {
	t.Helper()
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	eng := engine.MustNew(engine.Config{
		Perf:      pm,
		Scheduler: core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.03, Rng: rng.New(1)}),
	})
	srv, err := New(Config{Engine: eng, Timescale: timescale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// newRunningServer starts the driver and waits for it to exit at cleanup.
func newRunningServer(t testing.TB, timescale float64) *Server {
	t.Helper()
	srv := newServer(t, timescale)
	stopped := make(chan struct{})
	go func() {
		srv.Run()
		close(stopped)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-stopped
	})
	return srv
}

// newTestServer serves a running server over loopback; timescale 0 runs it
// as fast as possible.
func newTestServer(t *testing.T, timescale float64) (*Server, *httptest.Server) {
	t.Helper()
	srv := newRunningServer(t, timescale)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestGenerateNonStreaming(t *testing.T) {
	_, ts := newTestServer(t, 0)
	resp := postJSON(t, ts.URL+"/v1/generate", map[string]interface{}{
		"input_tokens": 100, "max_new_tokens": 64, "output_tokens": 20,
	})
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out generateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.OutputTokens != 20 {
		t.Fatalf("output tokens = %d, want 20", out.OutputTokens)
	}
	if out.TTFT < 0 || out.Status != "ok" {
		t.Fatalf("bad response: %+v", out)
	}
	if out.Latency <= 0 {
		t.Fatalf("latency = %v", out.Latency)
	}
}

func TestGenerateStreaming(t *testing.T) {
	_, ts := newTestServer(t, 0)
	resp := postJSON(t, ts.URL+"/v1/generate", map[string]interface{}{
		"input_tokens": 50, "max_new_tokens": 32, "output_tokens": 5, "stream": true,
	})
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	scanner := bufio.NewScanner(resp.Body)
	var lines []string
	for scanner.Scan() {
		lines = append(lines, scanner.Text())
	}
	// 5 token lines + 1 summary line.
	if len(lines) != 6 {
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	var first map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["token"].(float64) != 1 {
		t.Fatalf("first token line: %v", first)
	}
	var last generateResponse
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.OutputTokens != 5 || last.Status != "ok" {
		t.Fatalf("summary: %+v", last)
	}
}

func TestGenerateDefaultOutputSampled(t *testing.T) {
	_, ts := newTestServer(t, 0)
	resp := postJSON(t, ts.URL+"/v1/generate", map[string]interface{}{
		"input_tokens": 10, "max_new_tokens": 2048,
	})
	defer resp.Body.Close()
	var out generateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.OutputTokens <= 0 || out.OutputTokens > 2048 {
		t.Fatalf("sampled output = %d", out.OutputTokens)
	}
}

func TestGenerateValidation(t *testing.T) {
	_, ts := newTestServer(t, 0)
	resp := postJSON(t, ts.URL+"/v1/generate", map[string]interface{}{"input_tokens": 0})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero input status %d", resp.StatusCode)
	}
	resp2, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", resp2.StatusCode)
	}
	resp3, err := http.Get(ts.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp3.StatusCode)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, 0)
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/generate", map[string]interface{}{
				"input_tokens": 50 + i, "max_new_tokens": 64, "output_tokens": 10 + i,
			})
			defer resp.Body.Close()
			var out generateResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if out.OutputTokens != 10+i {
				errs <- fmt.Errorf("client %d got %d tokens", i, out.OutputTokens)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestStatusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 0)
	// Serve one request so the clock moves.
	resp := postJSON(t, ts.URL+"/v1/generate", map[string]interface{}{
		"input_tokens": 10, "output_tokens": 3,
	})
	resp.Body.Close()
	st, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var status statusResponse
	if err := json.NewDecoder(st.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.KVCapacity <= 0 {
		t.Fatalf("capacity = %d", status.KVCapacity)
	}
	if status.Clock <= 0 {
		t.Fatalf("clock = %v", status.Clock)
	}
	if status.HistoryLen != 1 {
		t.Fatalf("history len = %d", status.HistoryLen)
	}
}

// TestStatusCountsAcceptedBeforeStep: a request accepted between two driver
// steps sits in the engine's arrival heap, in neither the FCFS queue nor the
// batch. /v1/status must still count it — "queue" is engine.WaitingLen, the
// definition the cluster's routing probes use. No driver runs here, so the
// two accepted requests stay exactly there.
func TestStatusCountsAcceptedBeforeStep(t *testing.T) {
	srv := newServer(t, 0)
	for i := 0; i < 2; i++ {
		srv.submit(generateRequest{InputTokens: 100, OutputTokens: 5})
	}
	if srv.eng.QueueLen() != 0 || srv.eng.RunningLen() != 0 {
		t.Fatalf("engine stepped: queue %d, running %d", srv.eng.QueueLen(), srv.eng.RunningLen())
	}
	srv.eng.History().Add(1 << 20) // an output length past the rank index's bound
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	var status statusResponse
	if err := json.NewDecoder(rec.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Queue != 2 || status.Running != 0 {
		t.Fatalf("status counts queue %d, running %d with 2 requests accepted and none stepped", status.Queue, status.Running)
	}
	if status.RankDrops != 1 {
		t.Fatalf("status counts %d rank-index drops after one out-of-bound length", status.RankDrops)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, 0)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestTimescalePacesWallClock(t *testing.T) {
	// 100x faster than real time: a ~1.5s simulated generation should take
	// ~15ms wall-clock (plus scheduling noise).
	_, ts := newTestServer(t, 100)
	start := time.Now()
	resp := postJSON(t, ts.URL+"/v1/generate", map[string]interface{}{
		"input_tokens": 100, "max_new_tokens": 64, "output_tokens": 30,
	})
	resp.Body.Close()
	elapsed := time.Since(start)
	if elapsed < 2*time.Millisecond {
		t.Fatalf("run completed in %v: pacing not applied", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("run took %v: pacing far too slow", elapsed)
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing engine accepted")
	}
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	eng := engine.MustNew(engine.Config{Perf: pm, Scheduler: core.NewOracle()})
	if _, err := New(Config{Engine: eng, Timescale: -1}); err == nil {
		t.Fatal("negative timescale accepted")
	}
}
