package cluster

import (
	"math"
	"testing"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// FuzzPlannerConfig: NewCluster either rejects a planner configuration —
// NaN, ±Inf and predictor kinds other than Holt included, the last always — or
// serves a small Poisson stream under it in which every arrival ends exactly
// once and every KV pool drains.
func FuzzPlannerConfig(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(6.0, 1.5, 1, 3, 5.0, 1.0, 0.8, 0, int(HoltPredictor))
	f.Add(6.0, 1.5, 2, 3, 0.0, 0.0, 0.0, 1, int(HoltPredictor))
	f.Add(1e-9, 1e-9, 1, 3, 10.0, 0.5, 1.0, 5, int(HoltPredictor))
	f.Add(6.0, 1.5, 1, 3, 5.0, 1.0, 0.8, 0, int(HoltPredictor)+1) // unknown kind
	f.Add(6.0, 1.5, 1, 3, 1e-300, 1.0, 0.8, 0, 0)                 // ticks that would not move the clock
	f.Add(6.0, 1.5, 1, 3, 1e-3, 1.0, 0.8, 0, 0)
	for _, x := range []float64{nan, inf, -inf} {
		f.Add(x, 1.5, 1, 3, 5.0, 1.0, 0.8, 0, 0)
		f.Add(6.0, x, 1, 3, 5.0, 1.0, 0.8, 0, 0)
		f.Add(6.0, 1.5, 1, 3, x, 1.0, 0.8, 0, 0)
		f.Add(6.0, 1.5, 1, 3, 5.0, x, 0.8, 0, 0)
		f.Add(6.0, 1.5, 1, 3, 5.0, 1.0, x, 0, 0)
	}
	f.Fuzz(func(t *testing.T, ttft, mtpot float64, lo, hi int, interval, delay, headroom float64, spare, predictor int) {
		c, err := NewCluster(ClusterConfig{Pools: []Config{{
			Replicas: replicas(3, 8_000),
			Policy:   FutureHeadroom,
			Planner: &PlannerConfig{
				SLA: metrics.SLA{TTFT: ttft, MTPOT: mtpot}, Min: lo, Max: hi,
				Interval: interval, ActivationDelay: delay, Headroom: headroom,
				Spare: spare, Predictor: PredictorKind(predictor),
			},
		}}})
		if err != nil {
			return
		}
		if k := PredictorKind(predictor); k != HoltPredictor {
			t.Fatalf("accepted the unknown predictor kind %v", k)
		}
		s := served{c: c, reqs: poissonReqs(30, 10, 1)}
		s.results = c.Serve(s.reqs, 1e9)
		checkEnded(t, s, nil)
		checkPools(t, c, true)
	})
}

// TestFlavorThroughputClosedForms holds flavorThroughput to the per-role
// closed forms, bit for bit, on randomized flavors and planners: any role,
// correction factors, prefix hit rate, chunk and transfer pricing. With p
// the prefill seconds of the cache-discounted prompt (rounded, at least one
// token) plus its chunk overhead, and B, t_d the largest decode batch under
// the tightened TPOT target and its step time (maxDecodeBatch), a mixed
// replica sustains B/(osl·t_d + B·p), a prefill-only one 1/p with the
// transfer delay added to its TTFT check, and a decode-only one B/(osl·t_d);
// an infeasible operating point sustains 0. Seeds follow CHAOS_SEEDS
// (make chaos).
func TestFlavorThroughputClosedForms(t *testing.T) {
	models := []*perf.Model{perfFor(hw.H800), perfFor(hw.A100_80G), perfFor(hw.A30), perfFor(hw.RTX4090)}
	roles := []engine.Role{engine.RoleMixed, engine.RolePrefillOnly, engine.RoleDecodeOnly}
	for _, seed := range chaosSeeds(t) {
		r := rng.New(seed + 1700)
		// Feasible and infeasible operating points met, per role.
		met := map[engine.Role][2]int{}
		for trial := 0; trial < 600; trial++ {
			role := roles[r.Intn(len(roles))]
			pm := models[r.Intn(len(models))]
			f := &flavor{name: pm.Cluster().Name(), pm: pm, capacity: 4_000 + r.Intn(80_000),
				cost: pm.CostWeight(), relSpeed: 1, reps: make([]*replica, 1)}
			if r.Intn(2) == 0 {
				per := 0.001 + 0.004*r.Float64()
				f.chunkOver = func(tokens float64) float64 { return per * math.Ceil(tokens/512) }
			}
			if r.Intn(2) == 0 {
				per := 1e-5 + 5e-5*r.Float64()
				f.xfer = func(isl float64) float64 { return per * isl }
			}
			cfg := PlannerConfig{
				SLA: metrics.SLA{TTFT: 0.05 + 8*r.Float64(), MTPOT: 0.01 + 0.4*r.Float64()}, Min: 1, Max: 1,
			}
			p := newPlanner(cfg.withDefaults(), []*flavor{f}, role)
			p.corrTTFT = correctionFloor + (correctionCeil-correctionFloor)*r.Float64()
			p.corrTPOT = correctionFloor + (correctionCeil-correctionFloor)*r.Float64()
			if r.Intn(2) == 0 {
				p.hitRate = r.Float64()
			}
			isl, osl := 1+4000*r.Float64(), 1+2000*r.Float64()

			effTTFT, effTPOT := cfg.SLA.TTFT/p.corrTTFT, cfg.SLA.MTPOT/p.corrTPOT
			in := int(isl*(1-p.hitRate) + 0.5)
			if in < 1 {
				in = 1
			}
			prefill := pm.PrefillTime(in)
			if f.chunkOver != nil {
				prefill += f.chunkOver(float64(in))
			}
			var want flavorThr
			switch role {
			case engine.RoleMixed:
				b, td := maxDecodeBatch(pm, f.capacity, isl+osl/2, effTPOT)
				switch {
				case prefill > effTTFT:
					want = flavorThr{predTTFT: prefill}
				case td > effTPOT:
					want = flavorThr{predTTFT: prefill, predTPOT: td}
				default:
					want = flavorThr{thr: float64(b) / (osl*td + float64(b)*prefill), predTTFT: prefill, predTPOT: td}
				}
			case engine.RolePrefillOnly:
				ttft := prefill
				if f.xfer != nil {
					ttft += f.xfer(isl)
				}
				want = flavorThr{predTTFT: ttft}
				if ttft <= effTTFT {
					want.thr = 1 / prefill
				}
			case engine.RoleDecodeOnly:
				b, td := maxDecodeBatch(pm, f.capacity, isl+osl, effTPOT)
				want = flavorThr{predTPOT: td}
				if td <= effTPOT {
					want.thr = float64(b) / (osl * td)
				}
			}
			got := p.flavorThroughput(f, isl, osl)
			for _, v := range [][2]float64{{got.thr, want.thr}, {got.predTTFT, want.predTTFT}, {got.predTPOT, want.predTPOT}} {
				if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
					t.Fatalf("seed %d trial %d (%v, %s, isl %v, osl %v, hit %v, corr %v/%v): flavorThroughput %+v, closed form %+v",
						seed, trial, role, f.name, isl, osl, p.hitRate, p.corrTTFT, p.corrTPOT, got, want)
				}
			}
			m := met[role]
			if want.thr > 0 {
				m[0]++
			} else {
				m[1]++
			}
			met[role] = m
		}
		for _, role := range roles {
			if m := met[role]; m[0] == 0 || m[1] == 0 {
				t.Fatalf("seed %d: %v met %d feasible and %d infeasible operating points: a branch went unchecked", seed, role, m[0], m[1])
			}
		}
	}
}
