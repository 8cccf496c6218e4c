package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/server"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// httpClients is the closed loop's width: one keep-alive connection each.
// The load comes from this process, so it never exceeds the host's cores.
const httpClients = 2

// httpMaxNew caps every output, keeping a request short enough that the
// server's own path, not token generation, carries the time.
const httpMaxNew = 64

// httpRequest is one generated POST /v1/generate.
type httpRequest struct {
	body   []byte
	out    int
	stream bool
}

// httpReply is the part of the server's reply the client checks.
type httpReply struct {
	OutputTokens int    `json:"output_tokens"`
	Status       string `json:"status"`
}

// httpRequests generates the request list from the seed: ShareGPT inputs,
// outputs capped at httpMaxNew, streaming and non-streaming alternating.
func httpRequests(seed uint64, n int) []httpRequest {
	r := rng.New(seed + 3000)
	// ShareGPT clamps 1.4% of prompts to 2048 tokens, which would pin the
	// 99th-percentile TTFT of an unqueued server to one constant; lifting
	// the clamp leaves the percentile to the seed's draws.
	gen := workload.ShareGPT
	gen.InHi = 4096
	reqs := make([]httpRequest, n)
	for i := range reqs {
		in, out := gen.Sample(r)
		if out > httpMaxNew {
			out = httpMaxNew
		}
		stream := i%2 == 1
		reqs[i] = httpRequest{
			body: []byte(fmt.Sprintf(`{"input_tokens":%d,"max_new_tokens":%d,"output_tokens":%d,"stream":%t}`,
				in, httpMaxNew, out, stream)),
			out:    out,
			stream: stream,
		}
	}
	return reqs
}

// serveHTTP drives the live server over loopback: a closed loop of two
// keep-alive connections posting to /v1/generate while the server's driver
// goroutine runs the engine as fast as it can.
func serveHTTP(cfg runConfig, tr *tracer) (*replay, error) {
	return httpDrive(cfg, tr, true)
}

// httpExtras replays the same request list straight into the handler, with
// no socket: the difference to the loopback replay is what HTTP itself costs.
func httpExtras(cfg runConfig, ref *replay, layers map[string]float64, tl *tally) error {
	rp, err := httpDrive(cfg, nil, false)
	if err != nil {
		return err
	}
	tl.add(rp)
	layers["server.handler_s"] = rp.serveS
	layers["server.http_overhead_share"] = (ref.serveS - rp.serveS) / ref.serveS
	return nil
}

// httpDrive replays the request list through the server, over a loopback
// socket or — for the per-layer split — straight into its handler.
func httpDrive(cfg runConfig, tr *tracer, socket bool) (*replay, error) {
	if httpClients > runtime.NumCPU() {
		return nil, fmt.Errorf("serve-http: %d client goroutines on a %d-CPU host; the load generator must not outnumber the cores", httpClients, runtime.NumCPU())
	}
	t0 := time.Now()
	reqs := httpRequests(cfg.seed, scaled(20_000, cfg.scale, 400))
	eng, err := engine.New(engine.Config{Perf: a100(), Scheduler: pastFuture(cfg.seed, tr)})
	if err != nil {
		return nil, err
	}
	eng.SetRecorder(tr.recorder(), 0, 0)
	srv, err := server.New(server.Config{Engine: eng, Timescale: 0, Seed: cfg.seed, DefaultMaxNew: httpMaxNew})
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()
	var ts *httptest.Server
	if socket {
		ts = httptest.NewServer(handler)
		defer ts.Close()
	}
	driverDone := make(chan struct{})
	go func() {
		srv.Run()
		close(driverDone)
	}()
	rp := &replay{buildS: time.Since(t0).Seconds()}

	latencies := make([]float64, len(reqs)) // host µs at the client, by request
	bad := make([][]string, httpClients)
	non200 := make([]int, httpClients)
	var wg sync.WaitGroup
	t1 := time.Now()
	if tr != nil {
		tr.begin("server.drive")
	}
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var post func(body []byte) (int, io.ReadCloser, error)
			if socket {
				client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
				defer client.CloseIdleConnections()
				post = func(body []byte) (int, io.ReadCloser, error) {
					resp, err := client.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
					if err != nil {
						return 0, nil, err
					}
					return resp.StatusCode, resp.Body, nil
				}
			} else {
				post = func(body []byte) (int, io.ReadCloser, error) {
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body)))
					return rec.Code, io.NopCloser(rec.Body), nil
				}
			}
			for i := c; i < len(reqs); i += httpClients {
				start := time.Now()
				code, body, err := post(reqs[i].body)
				if err == nil && code != http.StatusOK {
					non200[c]++
					err = fmt.Errorf("status %d", code)
				}
				if err == nil {
					err = checkReply(body, reqs[i])
				}
				if body != nil {
					body.Close()
				}
				latencies[i] = float64(time.Since(start).Nanoseconds()) / 1e3
				if err != nil {
					bad[c] = append(bad[c], fmt.Sprintf("request %d: %v", i, err))
				}
			}
		}(c)
	}
	wg.Wait()
	rp.serveS = time.Since(t1).Seconds()
	srv.Close()
	<-driverDone

	res := eng.Snapshot()
	out := &outcomes{sent: len(reqs), firstID: 1, simSeconds: res.Duration}
	out.addEngine(res)
	// The report leaves out the engine's own counters: two clients race for
	// batch slots, so they differ from replay to replay.
	finish(rp, out, "")
	for c := range bad {
		for _, msg := range bad[c] {
			rp.fail(1, "%s", msg)
		}
		rp.layers["server.non200"] += float64(non200[c])
	}
	rp.busySpan = res.Duration
	engineLayers(rp.layers, out.sent, []*engine.Result{res}, []*engine.Engine{eng})
	var streamed []float64
	for i, us := range latencies {
		if reqs[i].stream {
			streamed = append(streamed, us)
		}
	}
	rp.layers["server.latency_p50_us"] = pct(latencies, 0.50)
	rp.layers["server.latency_p99_us"] = pct(latencies, 0.99)
	rp.layers["server.stream_latency_p50_us"] = pct(streamed, 0.50)
	if tr != nil {
		tracerLayers(rp.layers, tr, rp)
		// The server's driver goroutine idles between requests, so of the
		// host segments only the scheduler's own mean anything here.
		rp.layers["engine.step_s"], rp.layers["engine.self_s"], rp.layers["engine.step_ns"] = 0, 0, 0
	}
	return rp, nil
}

// checkReply reads one reply to the end and checks it against the request:
// a streamed reply carries one line per token and a closing summary, a plain
// reply is the summary alone, and the summary reports every token delivered.
func checkReply(body io.Reader, want httpRequest) error {
	var last []byte
	lines := 0
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		last = append(last[:0], sc.Bytes()...)
		lines++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read reply: %w", err)
	}
	var reply httpReply
	if err := json.Unmarshal(last, &reply); err != nil {
		return fmt.Errorf("decode reply %q: %w", last, err)
	}
	wantLines := 1
	if want.stream {
		wantLines += want.out
	}
	if reply.Status != "ok" || reply.OutputTokens != want.out || lines != wantLines {
		return fmt.Errorf("reply status %q with %d tokens in %d lines, want ok with %d tokens in %d lines",
			reply.Status, reply.OutputTokens, lines, want.out, wantLines)
	}
	return nil
}
