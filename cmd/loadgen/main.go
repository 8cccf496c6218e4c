// Command loadgen drives a lightllm-serve instance with closed-loop clients
// and reports client-side SLA metrics (TTFT, MTPOT, goodput), mirroring the
// paper's evaluation harness but over real HTTP, beside the host-side rate
// and wall-clock latency of the server it drove.
//
// Usage:
//
//	loadgen -url http://localhost:8080 -clients 16 -requests 64 \
//	        -ttft 10 -mtpot 1.5
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

type result struct {
	outputTokens int
	ttft         float64
	mtpot        float64
	ok           bool
	wall         time.Duration // POST to the last byte of the reply
}

func main() {
	var (
		url      = flag.String("url", "http://localhost:8080", "server base URL")
		clients  = flag.Int("clients", 8, "concurrent closed-loop clients")
		requests = flag.Int("requests", 32, "total requests to send")
		seed     = flag.Uint64("seed", 1, "workload seed")
		ttft     = flag.Float64("ttft", 10, "TTFT SLA bound (simulated seconds)")
		mtpot    = flag.Float64("mtpot", 1.5, "MTPOT SLA bound (simulated seconds)")
		maxNew   = flag.Int("max-new-tokens", 2048, "max_new_tokens per request")
	)
	flag.Parse()

	// One keep-alive connection per client: the default client keeps two
	// idle connections per host and would redial for the rest.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *clients}}
	var sent int64
	results := make(chan result, *requests)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(*seed + uint64(c))
			for {
				if atomic.AddInt64(&sent, 1) > int64(*requests) {
					return
				}
				in, out := workload.ShareGPT.Sample(r)
				res, err := generate(client, *url, in, out, *maxNew)
				if err != nil {
					fmt.Fprintln(os.Stderr, "loadgen:", err)
					return
				}
				results <- res
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(results)

	var all []result
	var goodTokens, totalTokens int
	var ttfts []float64
	var walls []time.Duration
	for res := range results {
		all = append(all, res)
		totalTokens += res.outputTokens
		if res.ok && res.ttft <= *ttft && res.mtpot <= *mtpot {
			goodTokens += res.outputTokens
		}
		ttfts = append(ttfts, res.ttft)
		walls = append(walls, res.wall)
	}
	if len(all) == 0 {
		fmt.Println("loadgen: no results")
		os.Exit(1)
	}
	sort.Float64s(ttfts)
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	p50, p99 := len(all)/2, int(float64(len(all)-1)*0.99)
	fmt.Printf("requests: %d, output tokens: %d\n", len(all), totalTokens)
	fmt.Printf("good tokens (SLA TTFT<%.1fs MTPOT<%.2fs): %d (%.1f%%)\n",
		*ttft, *mtpot, goodTokens, 100*float64(goodTokens)/float64(totalTokens))
	fmt.Printf("p50/p99 TTFT (simulated): %.2fs / %.2fs\n", ttfts[p50], ttfts[p99])
	fmt.Printf("host: %.0f requests/s over %v, p50/p99 wall latency %v / %v\n",
		float64(len(all))/elapsed.Seconds(), elapsed.Round(time.Millisecond), walls[p50], walls[p99])
}

func generate(client *http.Client, url string, in, out, maxNew int) (result, error) {
	body, _ := json.Marshal(map[string]interface{}{
		"input_tokens": in, "output_tokens": out, "max_new_tokens": maxNew,
	})
	start := time.Now()
	resp, err := client.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		return result{}, err
	}
	// A connection goes back to the pool only once its body is read to the end.
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body) // best effort: Close drops the connection otherwise
		resp.Body.Close()
	}()
	if resp.StatusCode != 200 {
		return result{}, fmt.Errorf("server status %d", resp.StatusCode)
	}
	var gr struct {
		OutputTokens int     `json:"output_tokens"`
		TTFT         float64 `json:"ttft"`
		MTPOT        float64 `json:"mtpot"`
		Status       string  `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		return result{}, err
	}
	return result{
		outputTokens: gr.OutputTokens,
		ttft:         gr.TTFT,
		mtpot:        gr.MTPOT,
		ok:           gr.Status == "ok",
		wall:         time.Since(start),
	}, nil
}
