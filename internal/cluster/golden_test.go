package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// goldenDayRun replays a small diurnal day — the benchmark's replay-day
// shape: eight rate phases, a mixture drifting from chat through multimodal
// to reasoning traffic, outputs capped at 150 tokens — through 16
// FutureHeadroom replicas and hashes everything the run decided: the whole
// Report as %+v, then every pool's routed counts. Plain is one mixed pool;
// otherwise the 16 split into a prefill and a decode pool joined by a
// per-destination link behind cluster-front admission with shedding, on a
// stream that overruns them at the midday peak.
func goldenDayRun(t *testing.T, seed uint64, plain bool) uint64 {
	t.Helper()
	const n = 4000
	shares := []float64{0.30, 0.45, 0.70, 1.00, 0.95, 0.75, 0.50, 0.35}
	peak, sum := 170.0, 0.0
	if !plain {
		peak = 250
	}
	for _, f := range shares {
		sum += f
	}
	phases := make([]workload.RatePhase, len(shares))
	for i, f := range shares {
		phases[i] = workload.RatePhase{Rate: f * peak, Duration: n / (peak * sum)}
	}
	stream := workload.NewStream(workload.StreamConfig{
		Gen: &workload.Concat{
			Label: "day",
			Parts: []workload.Generator{
				workload.Mixed{Label: "morning", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256)}, Weights: []float64{4, 1}},
				workload.Mixed{Label: "midday", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256), workload.ShareGPTO1}, Weights: []float64{2, 2, 1}},
				workload.Mixed{Label: "evening", Parts: []workload.Generator{workload.ShareGPT, workload.ShareGPTO1}, Weights: []float64{2, 3}},
			},
			PerPart: n / 3,
		},
		Lengths:  rng.New(seed + 1000),
		Arrivals: rng.New(seed + 2000),
		Phases:   phases,
		N:        n,
		FirstID:  1,
		MaxNew:   150,
	})
	sla := metrics.SLA{TTFT: 6, MTPOT: 1.5}
	cfg := ClusterConfig{Pools: []Config{{Replicas: replicas(16, 10_000), Policy: FutureHeadroom}}}
	if !plain {
		link := kv.MustNewLink(10e9, 0.002)
		link.PerDestination = true
		cfg = ClusterConfig{
			Pools: []Config{
				{Role: engine.RolePrefillOnly, Replicas: prefillReplicas(6, 10_000), Policy: FutureHeadroom},
				{Role: engine.RoleDecodeOnly, Replicas: decodeReplicas(10, 10_000, seed), Policy: FutureHeadroom},
			},
			Link:      link,
			Admission: &AdmissionConfig{TTFTBudget: sla.TTFT, Shed: true, Slack: 1.5, DecodeMaxProbe: 0.9},
		}
	}
	clu := MustNewCluster(cfg)
	rep := clu.Report(clu.ServeStream(stream.Next, 1e9), sla)
	if rep.Finished+rep.Shed+rep.TimedOut+rep.Failed != n {
		t.Fatalf("%d finished + %d shed + %d timed out + %d failed of %d sent", rep.Finished, rep.Shed, rep.TimedOut, rep.Failed, n)
	}
	if !plain && (rep.Shed == 0 || rep.Shed > n/4) {
		t.Fatalf("admission variant shed %d of %d: the gate must carry load without dominating the run", rep.Shed, n)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", rep)
	for i := 0; i < clu.NumPools(); i++ {
		fmt.Fprint(h, clu.Pool(i).RoutedCounts())
	}
	return h.Sum64()
}

// TestFutureHeadroomDecisionsGolden pins every FutureHeadroom decision of
// two small days to the hashes this test printed at the commit before the
// routing probes learned to outlive a decode step (01bf65f): a change to the
// probes, the estimator or the event loop that claims to alter no decision
// passes unmodified, and one that means to alter them re-records with -v.
func TestFutureHeadroomDecisionsGolden(t *testing.T) {
	golden := map[string][3]uint64{
		"plain":            {0x7785553ebd127088, 0xc3d4b905bda3f7dc, 0xec195f5e7e49c0a0},
		"admission+decode": {0xdb2e7273d4fce7d4, 0x6f6379a22451e187, 0x2f7a6566333c21c3},
	}
	for _, name := range []string{"plain", "admission+decode"} {
		for i, want := range golden[name] {
			seed := uint64(i + 1)
			got := goldenDayRun(t, seed, name == "plain")
			t.Logf("%s seed %d: %#x", name, seed, got)
			if got != want {
				t.Errorf("%s seed %d: decisions hash to %#x, golden %#x", name, seed, got, want)
			}
		}
	}
}
