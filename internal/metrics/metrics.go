// Package metrics computes the paper's service-level metrics from finished
// requests: TTFT (time to first token), TPOT (time per output token), MTPOT
// (maximum TPOT within a request), SLA attainment, throughput, and goodput —
// throughput counted only over requests that met the SLA (§2.5, §5.1).
package metrics

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/stats"
)

// SLA is a service-level agreement on per-request latency metrics.
type SLA struct {
	// TTFT is the maximum time to first token, seconds.
	TTFT float64
	// MTPOT is the maximum inter-token gap, seconds.
	MTPOT float64
}

// The paper's SLA settings (§5.1): (10 s, 1.5 s) for 7B/13B models and
// (15 s, 5 s) for the 70B model.
var (
	SLASmall = SLA{TTFT: 10, MTPOT: 1.5}
	SLALarge = SLA{TTFT: 15, MTPOT: 5}
)

// Met reports whether a finished request satisfied the SLA.
func (s SLA) Met(r *request.Request) bool {
	ttft := r.TTFT()
	return ttft >= 0 && ttft <= s.TTFT && r.MTPOT() <= s.MTPOT
}

// String implements fmt.Stringer.
func (s SLA) String() string {
	return fmt.Sprintf("TTFT<%.0fs MTPOT<%.1fs", s.TTFT, s.MTPOT)
}

// Summary aggregates one run's finished requests over a measurement window.
type Summary struct {
	// Window is the measurement span in simulated seconds.
	Window float64
	// Total counts requests finishing (or abandoned) inside the window.
	Total int
	// SLAOK counts requests that met the SLA.
	SLAOK int
	// TimedOut counts requests abandoned in the queue past their TTFT
	// budget (always SLA violations, contributing zero good tokens).
	TimedOut int
	// Shed counts requests refused by cluster-front admission control
	// (always SLA violations, contributing zero good tokens — service was
	// never rendered).
	Shed int
	// ViolatedTTFT / ViolatedMTPOT break down the violations (a request can
	// appear in both).
	ViolatedTTFT  int
	ViolatedMTPOT int

	// Failure axis (fault injection; all zero on a healthy run).
	//
	// Crashes counts replica crashes; Orphaned the in-flight or queued
	// requests those crashes evacuated. Recovered counts requests that
	// finished after at least one fault retry; ReShed those re-admitted
	// after a crash but shed the second time around. Lost counts requests a
	// crash killed outright with recovery disabled (each is one request
	// violating the TTFT SLA with zero good tokens — a fleet that loses
	// work cannot launder attainment by not counting it). TransferRetries
	// counts KV-link delivery retries, RePrefills transfers abandoned back
	// to a fresh prefill. MeanTimeToRecover is the mean repair span of the
	// crashes that completed recovery, simulated seconds.
	Crashes           int
	Orphaned          int
	Recovered         int
	ReShed            int
	Lost              int
	TransferRetries   int
	RePrefills        int
	MeanTimeToRecover float64

	// OutputTokens / GoodTokens are output-token totals (all / SLA-meeting).
	OutputTokens int64
	GoodTokens   int64
	// Throughput is OutputTokens per second of window.
	Throughput float64
	// Goodput is GoodTokens per second of window — the paper's headline
	// metric.
	Goodput float64

	MeanTTFT  float64
	P99TTFT   float64
	MeanTPOT  float64
	P99TPOT   float64
	MeanMTPOT float64
	P99MTPOT  float64
	// MeanEvictions is the average evictions per finished request.
	MeanEvictions float64

	// CostSeconds is the normalized provisioning cost of the run:
	// replica-seconds scaled by each replica's hardware cost weight (1.0 =
	// one A100-80G replica-second), so heterogeneous fleets compare on
	// spend, not instance counts. Populated by the fleet report; 0 when the
	// summary was built from raw engine results.
	CostSeconds float64
}

// SLARate returns the fraction of requests meeting the SLA.
func (s Summary) SLARate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.SLAOK) / float64(s.Total)
}

// Summarize computes a Summary over requests finishing in (from, to].
// Requests finishing outside the window (warm-up, post-deadline stragglers)
// are excluded, as are unfinished requests.
func Summarize(finished []*request.Request, sla SLA, from, to float64) Summary {
	if to <= from {
		panic(fmt.Sprintf("metrics: empty window [%v, %v]", from, to))
	}
	s := Summary{Window: to - from}
	// Sized once: grown by append over a day's worth of requests these cost
	// twice their final size, and the copy a percentile sorts as much again.
	ttfts := make([]float64, 0, len(finished))
	tpots := make([]float64, 0, len(finished))
	mtpots := make([]float64, 0, len(finished))
	var evictions int
	for _, r := range finished {
		if r.FinishedAt <= from || r.FinishedAt > to {
			continue
		}
		s.Total++
		s.OutputTokens += int64(r.Generated)
		ttfts = append(ttfts, r.TTFT())
		tpots = append(tpots, r.TPOT())
		mtpots = append(mtpots, r.MTPOT())
		evictions += r.Evictions
		ok := sla.Met(r)
		if ok {
			s.SLAOK++
			s.GoodTokens += int64(r.Generated)
		}
		if r.TTFT() < 0 || r.TTFT() > sla.TTFT {
			s.ViolatedTTFT++
		}
		if r.MTPOT() > sla.MTPOT {
			s.ViolatedMTPOT++
		}
	}
	s.Throughput = float64(s.OutputTokens) / s.Window
	s.Goodput = float64(s.GoodTokens) / s.Window
	if s.Total > 0 {
		// Each mean before its percentile: the sum runs in request order,
		// the percentile then sorts the slice where it lies.
		s.MeanTTFT = stats.Mean(ttfts)
		s.P99TTFT = stats.PercentileInPlace(ttfts, 0.99)
		s.MeanTPOT = stats.Mean(tpots)
		s.P99TPOT = stats.PercentileInPlace(tpots, 0.99)
		s.MeanMTPOT = stats.Mean(mtpots)
		s.P99MTPOT = stats.PercentileInPlace(mtpots, 0.99)
		s.MeanEvictions = float64(evictions) / float64(s.Total)
	}
	return s
}

// AddTimedOut folds queue-abandoned requests (DroppedAt in (from, to]) into
// the summary: each counts as one request violating the TTFT SLA with zero
// good tokens. Throughput/goodput rates are unchanged (no tokens flowed).
func (s *Summary) AddTimedOut(dropped []*request.Request, from, to float64) {
	for _, r := range dropped {
		if r.DroppedAt <= from || r.DroppedAt > to {
			continue
		}
		s.Total++
		s.TimedOut++
		s.ViolatedTTFT++
	}
}

// AddShed folds admission-shed requests (ShedAt in (from, to]) into the
// summary: each counts as one request violating the TTFT SLA with zero good
// tokens, so shedding cannot launder overall attainment — it can only trade
// refused requests for protected ones. The latency percentiles stay
// served-only (a shed request has no latency to report).
func (s *Summary) AddShed(shed []*request.Request, from, to float64) {
	for _, r := range shed {
		if r.ShedAt <= from || r.ShedAt > to {
			continue
		}
		s.Total++
		s.Shed++
		s.ViolatedTTFT++
	}
}

// AddLost folds crash-killed requests into the summary: each counts as one
// request violating the TTFT SLA with zero good tokens, exactly like a shed
// — service was promised and never rendered. No window filter: a lost
// request has no completion time to filter on, and excluding it would make
// losing work look like serving it.
func (s *Summary) AddLost(lost []*request.Request) {
	for range lost {
		s.Total++
		s.Lost++
		s.ViolatedTTFT++
	}
}

// GoodCompletionRate returns SLA-met completions per second of window —
// the goodput axis of the admission-control comparison, counted in
// requests rather than tokens so shed-heavy and shed-free runs compare on
// how many users actually got SLA-conforming service.
func (s Summary) GoodCompletionRate() float64 {
	if s.Window <= 0 {
		return 0
	}
	return float64(s.SLAOK) / s.Window
}

// CostPerGoodCompletion returns the normalized provisioning cost per
// SLA-met completion (A100-equivalent replica-seconds each conforming
// request cost to serve) — the efficiency axis of the heterogeneous-fleet
// comparison: a cheaper fleet that sheds everyone is not cheaper per good
// completion. 0 when no request met the SLA or no cost was recorded.
func (s Summary) CostPerGoodCompletion() float64 {
	if s.SLAOK == 0 {
		return 0
	}
	return s.CostSeconds / float64(s.SLAOK)
}

// String renders a one-line summary for logs and tables.
func (s Summary) String() string {
	out := fmt.Sprintf("n=%d sla=%.1f%% goodput=%.0f tok/s throughput=%.0f tok/s p99ttft=%.2fs p99mtpot=%.2fs",
		s.Total, s.SLARate()*100, s.Goodput, s.Throughput, s.P99TTFT, s.P99MTPOT)
	// The overload, failure, and cost axes render only when non-zero, so a
	// healthy single-engine run keeps its familiar one-liner while an
	// overload or fault-storm log line actually says what went wrong.
	if s.Shed > 0 || s.TimedOut > 0 {
		out += fmt.Sprintf(" shed=%d timedout=%d", s.Shed, s.TimedOut)
	}
	if s.Crashes > 0 || s.Lost > 0 {
		out += fmt.Sprintf(" crashes=%d orphaned=%d recovered=%d reshed=%d lost=%d",
			s.Crashes, s.Orphaned, s.Recovered, s.ReShed, s.Lost)
		if s.MeanTimeToRecover > 0 {
			out += fmt.Sprintf(" mttr=%.2fs", s.MeanTimeToRecover)
		}
	}
	if s.TransferRetries > 0 || s.RePrefills > 0 {
		out += fmt.Sprintf(" xferretries=%d reprefills=%d", s.TransferRetries, s.RePrefills)
	}
	if s.CostSeconds > 0 {
		out += fmt.Sprintf(" cost=%.0f", s.CostSeconds)
		if cpg := s.CostPerGoodCompletion(); cpg > 0 {
			out += fmt.Sprintf(" cost/good=%.3f", cpg)
		}
	}
	return out
}
