package main

import (
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/stats"
)

// sla is the paper's §5.1 limit pair for the 7B model, on the simulated
// clock: first token within 10 s, no inter-token gap above 1.5 s.
var sla = metrics.SLASmall

// outcomes collects every terminal record one replay produced, from the
// program's public result lists. A request that appears in none of them had
// no outcome; one that appears twice had two.
type outcomes struct {
	sent     int   // requests sent, numbered firstID..firstID+sent-1
	firstID  int64 // lowest request ID
	finished []*request.Request
	timedOut []*request.Request
	failed   []*request.Request // unservable in an engine, or lost to a crash
	shed     []*request.Request
	// simSeconds is the modelled span of the replay.
	simSeconds float64
	// prefillTokens is the prompt tokens the engines encoded, recomputation
	// after evictions included.
	prefillTokens int64
}

// addEngine folds one engine's result lists into the record.
func (o *outcomes) addEngine(res *engine.Result) {
	o.finished = append(o.finished, res.Finished...)
	o.timedOut = append(o.timedOut, res.TimedOut...)
	o.failed = append(o.failed, res.Failed...)
	o.prefillTokens += res.PrefillComputeTokens
}

// each calls f for every terminal record.
func (o *outcomes) each(f func(*request.Request)) {
	for _, list := range [][]*request.Request{o.finished, o.timedOut, o.failed, o.shed} {
		for _, r := range list {
			f(r)
		}
	}
}

// records returns the ID of every terminal record, one entry per record.
func (o *outcomes) records() []int64 {
	ids := make([]int64, 0, len(o.finished)+len(o.timedOut)+len(o.failed)+len(o.shed))
	o.each(func(r *request.Request) { ids = append(ids, r.ID) })
	return ids
}

// conserve checks exactly-once termination: each of the sent IDs
// firstID..firstID+sent-1 must appear in records exactly once. It returns
// how many requests had no record, how many had more than one, and how many
// records named an ID that was never sent.
func conserve(sent int, firstID int64, records []int64) (missing, duplicated, unknown int) {
	seen := make([]uint8, sent)
	for _, id := range records {
		i := id - firstID
		if i < 0 || i >= int64(sent) {
			unknown++
			continue
		}
		if seen[i] < 2 {
			seen[i]++
		}
	}
	for _, n := range seen {
		switch n {
		case 0:
			missing++
		case 2:
			duplicated++
		}
	}
	return missing, duplicated, unknown
}

// simMetrics are the end-to-end metrics read off the simulated clock and the
// program's counters. On the deterministic workloads they repeat exactly for
// one seed.
type simMetrics struct {
	GoodputTokS      float64 // output tokens of requests meeting both limits ÷ simulated span
	SLAAttainment    float64 // requests meeting both limits ÷ sent
	TTFTP50, TTFTP99 float64 // over served requests
	MTPOTP99         float64 // p99 of each served request's largest inter-token gap
	EvictedShare     float64 // requests evicted at least once ÷ sent
	PrefillPerReq    float64 // prompt tokens encoded ÷ sent
	Served           int     // sample count behind the TTFT and MTPOT percentiles
	MetBoth          int     // requests that met both limits
}

// summarize derives the simulated end-to-end metrics. Shed, timed-out,
// failed and lost requests have no latency and miss the limits.
func summarize(o *outcomes) simMetrics {
	m := simMetrics{Served: len(o.finished)}
	if o.sent == 0 {
		return m
	}
	ttft := make([]float64, 0, len(o.finished))
	gaps := make([]float64, 0, len(o.finished))
	var goodTokens int64
	evicted := 0
	for _, r := range o.finished {
		ttft = append(ttft, r.TTFT())
		gaps = append(gaps, r.MTPOT())
		if sla.Met(r) {
			m.MetBoth++
			goodTokens += int64(r.Generated)
		}
	}
	o.each(func(r *request.Request) {
		if r.Evictions > 0 {
			evicted++
		}
	})
	sent := float64(o.sent)
	m.SLAAttainment = float64(m.MetBoth) / sent
	m.EvictedShare = float64(evicted) / sent
	m.PrefillPerReq = float64(o.prefillTokens) / sent
	if o.simSeconds > 0 {
		m.GoodputTokS = float64(goodTokens) / o.simSeconds
	}
	m.TTFTP50 = pct(ttft, 0.50)
	m.TTFTP99 = pct(ttft, 0.99)
	m.MTPOTP99 = pct(gaps, 0.99)
	return m
}

// pct is stats.Percentile with 0 for an empty sample.
func pct(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return stats.Percentile(vs, p)
}
