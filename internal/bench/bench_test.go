package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// The tests in this file are the repository's acceptance criteria: each
// experiment runner must reproduce the paper's qualitative shape at reduced
// scale. Absolute values differ from the paper (different substrate, reduced
// scale); orderings and crossovers must not.

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}}
	tbl.Add("x", "y")
	tbl.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "bb") || !strings.Contains(out, "--") {
		t.Fatalf("table output:\n%s", out)
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	if o.Scale != 1.0 || o.Seed == 0 || o.Out == nil {
		t.Fatalf("defaults: %+v", o)
	}
	if s := (Options{Scale: 0.0001}).normalized().Scale; s < 0.005 {
		t.Fatalf("scale floor: %v", s)
	}
}

func TestScaled(t *testing.T) {
	if scaled(1000, 0.5, 10) != 500 {
		t.Fatal("scaled(1000, .5)")
	}
	if scaled(1000, 0.001, 40) != 40 {
		t.Fatal("scaled floor")
	}
}

func TestTable1Shapes(t *testing.T) {
	res := RunTable1(Options{Seed: 1, Scale: 0.05})
	if len(res.Rows) != 27 {
		t.Fatalf("rows = %d, want 27", len(res.Rows))
	}
	for _, ds := range []string{"Distribution-1", "Distribution-2", "Distribution-3"} {
		opt := res.Row(ds, "Theoretical optimum")
		pf := res.Row(ds, "Past-Future (reserved=5%)")
		ag99 := res.Row(ds, "Aggressive (watermark=99%)")
		ag90 := res.Row(ds, "Aggressive (watermark=90%)")
		co := res.Row(ds, "Conservative (no overcommit)")
		if opt == nil || pf == nil || ag99 == nil || ag90 == nil || co == nil {
			t.Fatalf("%s: missing rows", ds)
		}
		// The oracle never evicts and no one beats its utilisation except
		// the overcommitting aggressive scheduler.
		if opt.EvictedFrac != 0 {
			t.Errorf("%s: optimum evicted %.2f%%", ds, opt.EvictedFrac*100)
		}
		// Conservative: zero evictions, most decoding steps, least memory.
		if co.EvictedFrac != 0 {
			t.Errorf("%s: conservative(no oc) evicted", ds)
		}
		if co.DecodeSteps <= opt.DecodeSteps {
			t.Errorf("%s: conservative steps %d not above optimum %d", ds, co.DecodeSteps, opt.DecodeSteps)
		}
		if co.ConsumedMem >= pf.ConsumedMem {
			t.Errorf("%s: conservative memory %.1f%% not below past-future %.1f%%",
				ds, co.ConsumedMem*100, pf.ConsumedMem*100)
		}
		// Aggressive(99%): overcommits the future and evicts far more than
		// Past-Future.
		if ag99.FutureRequired <= 1.0 {
			t.Errorf("%s: aggressive(99%%) future required %.1f%% ≤ 100%%", ds, ag99.FutureRequired*100)
		}
		if ag99.EvictedFrac <= 2*pf.EvictedFrac {
			t.Errorf("%s: aggressive(99%%) evictions %.1f%% not ≫ past-future %.1f%%",
				ds, ag99.EvictedFrac*100, pf.EvictedFrac*100)
		}
		// Lowering the watermark trades evictions for decoding steps.
		if ag90.EvictedFrac >= ag99.EvictedFrac {
			t.Errorf("%s: watermark 90%% should evict less than 99%%", ds)
		}
		if ag90.DecodeSteps <= ag99.DecodeSteps {
			t.Errorf("%s: watermark 90%% should take more steps than 99%%", ds)
		}
		// Past-Future keeps future-required below capacity on average.
		if pf.FutureRequired > 1.0 {
			t.Errorf("%s: past-future future required %.1f%% above capacity", ds, pf.FutureRequired*100)
		}
		// Every request completes.
		if pf.Finished+pf.Failed != res.Requests {
			t.Errorf("%s: past-future finished %d + failed %d != %d", ds, pf.Finished, pf.Failed, res.Requests)
		}
	}
	// Reserved sweep: more reserve, fewer evictions, more steps.
	d1r3 := res.Row("Distribution-1", "Past-Future (reserved=3%)")
	d1r10 := res.Row("Distribution-1", "Past-Future (reserved=10%)")
	if d1r10.EvictedFrac > d1r3.EvictedFrac {
		t.Errorf("reserved=10%% evicted more (%.1f%%) than 3%% (%.1f%%)",
			d1r10.EvictedFrac*100, d1r3.EvictedFrac*100)
	}
}

func TestFigure1Shapes(t *testing.T) {
	res := RunFigure1(Options{Seed: 1, Scale: 0.08})
	for _, regime := range []string{"decode-heavy", "prefill-heavy"} {
		co := res.Cell(regime, "conservative")
		ag := res.Cell(regime, "aggressive")
		pf := res.Cell(regime, "past-future")
		if co == nil || ag == nil || pf == nil {
			t.Fatalf("%s: missing cells", regime)
		}
		if co.ConsumedMem >= pf.ConsumedMem {
			t.Errorf("%s: conservative memory not lowest", regime)
		}
		if ag.FutureMax <= 1.0 {
			t.Errorf("%s: aggressive future max %.1f%% never exceeded capacity", regime, ag.FutureMax*100)
		}
		if pf.EvictedFrac >= ag.EvictedFrac {
			t.Errorf("%s: past-future evictions %.2f not below aggressive %.2f",
				regime, pf.EvictedFrac, ag.EvictedFrac)
		}
		if pf.FutureReq > 1.0 {
			t.Errorf("%s: past-future future requirement above capacity", regime)
		}
		if len(pf.Series) == 0 {
			t.Errorf("%s: no memory time series captured", regime)
		}
	}
	// The paper's headline: eviction rate is much worse for aggressive on
	// decode-heavy than prefill-heavy.
	agD := res.Cell("decode-heavy", "aggressive")
	agP := res.Cell("prefill-heavy", "aggressive")
	if agD.EvictedFrac <= agP.EvictedFrac {
		t.Errorf("aggressive evictions decode-heavy %.2f not above prefill-heavy %.2f",
			agD.EvictedFrac, agP.EvictedFrac)
	}
}

func TestFigure3Shapes(t *testing.T) {
	res := RunFigure3(Options{Seed: 1, Scale: 0.5})
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Diagonal < 0.7 {
			t.Errorf("%s: adjacent-window similarity %.2f < 0.7", row.TraceName, row.Diagonal)
		}
	}
	conv := res.Row("BurstGPT-Conv")
	api := res.Row("BurstGPT-API")
	if api.Global >= conv.Global {
		t.Errorf("API global %.2f should be below conversation global %.2f", api.Global, conv.Global)
	}
	if api.Diagonal <= api.Global {
		t.Errorf("API diagonal %.2f should exceed its global %.2f", api.Diagonal, api.Global)
	}
}

func TestFigure4Shapes(t *testing.T) {
	res := RunFigure4(Options{Seed: 1, Scale: 0.5})
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	row := res.Row(1000, 1000)
	if row == nil {
		t.Fatal("hist=1000 run=1000 row missing")
	}
	if row.ConvDiagonal < 0.8 {
		t.Errorf("conversation diagonal at 1000/1000 = %.2f", row.ConvDiagonal)
	}
	if row.APIDiagonal <= row.APIGlobal {
		t.Errorf("API diagonal %.2f not above global %.2f", row.APIDiagonal, row.APIGlobal)
	}
}

func TestFigure5Numbers(t *testing.T) {
	res := RunFigure5(Options{})
	if res.PeakAtT != 19 || res.PeakAtT1 != 18 {
		t.Fatalf("peaks = %d/%d, want 19/18", res.PeakAtT, res.PeakAtT1)
	}
}

func TestFigure6Behaviour(t *testing.T) {
	res := RunFigure6(Options{})
	if got := res.AdmitStep["aggressive"]; got != 0 {
		t.Errorf("aggressive admits at t+%d, want t", got)
	}
	if !res.Overcommits["aggressive"] {
		t.Error("aggressive admission should overcommit the future")
	}
	if got := res.AdmitStep["looking-to-future"]; got != 1 {
		t.Errorf("future-aware admits at t+%d, want t+1", got)
	}
	if res.Overcommits["looking-to-future"] {
		t.Error("future-aware admission must not overcommit")
	}
	if got := res.AdmitStep["conservative"]; got != 2 {
		t.Errorf("conservative admits at t+%d, want t+2", got)
	}
}

func TestFigure7Shapes(t *testing.T) {
	res := RunFigure7(Fig7Options{
		Options:  Options{Seed: 1, Scale: 0.25},
		Models:   []string{"Llama2-7B"},
		Datasets: []string{"ShareGPT-o1"},
	})
	panel := res.Panel("Llama2-7B-Chat", "ShareGPT-o1")
	if panel == nil {
		t.Fatal("panel missing")
	}
	co := panel.Curve("conservative")
	ag := panel.Curve("aggressive")
	pf := panel.Curve("past-future")
	if co == nil || ag == nil || pf == nil {
		t.Fatal("curves missing")
	}
	// Light load: all schedulers behave alike (±25%).
	lo := co.Points[0].Clients
	if pf.GoodputAt(lo) < 0.75*ag.GoodputAt(lo) || pf.GoodputAt(lo) > 1.33*ag.GoodputAt(lo) {
		t.Errorf("light-load goodputs diverge: pf=%v ag=%v", pf.GoodputAt(lo), ag.GoodputAt(lo))
	}
	// Heavy load: Past-Future wins; conservative is far below.
	hi := co.Points[len(co.Points)-1].Clients
	if pf.GoodputAt(hi) <= ag.GoodputAt(hi) {
		t.Errorf("heavy-load: past-future %v not above aggressive %v", pf.GoodputAt(hi), ag.GoodputAt(hi))
	}
	if pf.GoodputAt(hi) < 1.4*co.GoodputAt(hi) {
		t.Errorf("heavy-load: past-future %v not ≫ conservative %v", pf.GoodputAt(hi), co.GoodputAt(hi))
	}
	// Past-Future's peak is the panel's best.
	if pf.PeakGoodput() < ag.PeakGoodput() || pf.PeakGoodput() < co.PeakGoodput() {
		t.Errorf("past-future peak %v below a baseline (ag %v, co %v)",
			pf.PeakGoodput(), ag.PeakGoodput(), co.PeakGoodput())
	}
	// Aggressive evicts much more than Past-Future at heavy load.
	agEv := ag.Points[len(ag.Points)-1].Evictions
	pfEv := pf.Points[len(pf.Points)-1].Evictions
	if agEv <= pfEv {
		t.Errorf("aggressive evictions %d not above past-future %d", agEv, pfEv)
	}
}

func TestFigure8Shapes(t *testing.T) {
	res := RunFigure8(Options{Seed: 1, Scale: 0.1})
	opt := res.Family("optimum")
	pf := res.Family("past-future")
	ag := res.Family("aggressive")
	co := res.Family("conservative")
	if len(opt) != 1 || len(pf) != 5 || len(ag) != 7 || len(co) != 6 {
		t.Fatalf("family sizes: opt=%d pf=%d ag=%d co=%d", len(opt), len(pf), len(ag), len(co))
	}
	if opt[0].EvictedFrac != 0 {
		t.Error("optimum evicted")
	}
	// Conservative without overcommit: zero evictions, the most steps.
	if co[0].EvictedFrac != 0 {
		t.Error("conservative(1.0) evicted")
	}
	maxSteps := 0
	for _, p := range res.Points {
		if p.DecodeSteps > maxSteps {
			maxSteps = p.DecodeSteps
		}
	}
	// The most decoding steps must belong to a low-watermark aggressive or
	// no-overcommit conservative point, never to past-future.
	for _, p := range pf {
		if p.DecodeSteps == maxSteps {
			t.Error("past-future has the most decoding steps")
		}
	}
	// Frontier property: every past-future point is not strictly dominated
	// by any baseline point (fewer steps AND fewer evictions).
	for _, pp := range pf {
		for _, bp := range append(append([]Fig8Point{}, ag...), co...) {
			if bp.DecodeSteps < pp.DecodeSteps && bp.EvictedFrac < pp.EvictedFrac {
				t.Errorf("past-future(%.2f) dominated by %s(%.2f): steps %d vs %d, evict %.2f%% vs %.2f%%",
					pp.Param, bp.Family, bp.Param, bp.DecodeSteps, pp.DecodeSteps,
					bp.EvictedFrac*100, pp.EvictedFrac*100)
			}
		}
	}
}

func TestFigure9Shapes(t *testing.T) {
	res := RunFigure9(Fig9Options{
		Options:  Options{Seed: 1, Scale: 0.25},
		Models:   []string{"Llama2-7B"},
		Hardware: []string{"A100-80G"},
	})
	frameworksSeen := map[string]bool{}
	for _, c := range res.Cells {
		frameworksSeen[c.Framework] = true
	}
	for _, want := range []string{"TGI", "vLLM", "DeepSpeed-MII", "TensorRT-LLM", "LightLLM"} {
		if !frameworksSeen[want] {
			t.Fatalf("framework %s missing", want)
		}
	}
	ll := res.Cell("Llama2-7B", "A100-80G", "LightLLM")
	for _, other := range []string{"TGI", "vLLM", "DeepSpeed-MII", "TensorRT-LLM"} {
		oc := res.Cell("Llama2-7B", "A100-80G", other)
		if ll.MaxGoodput < oc.MaxGoodput {
			t.Errorf("LightLLM goodput %v below %s %v", ll.MaxGoodput, other, oc.MaxGoodput)
		}
	}
	// vLLM reaches competitive throughput but loses goodput to evictions.
	vl := res.Cell("Llama2-7B", "A100-80G", "vLLM")
	tgi := res.Cell("Llama2-7B", "A100-80G", "TGI")
	if vl.MaxThroughput <= tgi.MaxThroughput {
		t.Errorf("vLLM throughput %v not above TGI %v", vl.MaxThroughput, tgi.MaxThroughput)
	}
	if vl.GoodputFrac >= ll.GoodputFrac {
		t.Errorf("vLLM goodput fraction %v not below LightLLM %v", vl.GoodputFrac, ll.GoodputFrac)
	}
}

func TestTable2Shapes(t *testing.T) {
	res := RunTable2(Options{Seed: 1, Scale: 0.1})
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Speedup < 1.3 {
			t.Errorf("%s: LightLLM speedup %.2f below 1.3x", row.Model, row.Speedup)
		}
		if row.OriginThroughput <= 0 || row.LightLLMThroughput <= 0 {
			t.Errorf("%s: non-positive throughput", row.Model)
		}
	}
	// Larger model, lower absolute throughput.
	qwen := res.Row("Qwen")
	l13 := res.Row("LLaVA-1.5-13B")
	if l13.LightLLMThroughput >= qwen.LightLLMThroughput {
		t.Errorf("13B throughput %v not below Qwen %v", l13.LightLLMThroughput, qwen.LightLLMThroughput)
	}
}

func TestPredictorShapes(t *testing.T) {
	res := RunPredictor(Options{Seed: 1, Scale: 0.3})
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Median-unbiased sampling: under-rate ≈ 1/2; max-of-4 ≈ 1/5.
		if row.Under0 < 0.42 || row.Under0 > 0.58 {
			t.Errorf("%s: under rate %.2f far from 1/2", row.Workload, row.Under0)
		}
		if row.UnderMax4 < 0.13 || row.UnderMax4 > 0.28 {
			t.Errorf("%s: max-4 under rate %.2f far from 1/5", row.Workload, row.UnderMax4)
		}
		// The conditional update bounds the shortfall: it must shrink
		// dramatically with generation progress.
		if row.Short90 > row.Short0/2 {
			t.Errorf("%s: shortfall at 90%% progress (%.2f%%) not well below admission (%.2f%%)",
				row.Workload, row.Short90*100, row.Short0*100)
		}
		if row.Short90 > 0.05 {
			t.Errorf("%s: shortfall at 90%% progress %.2f%% above 5%%", row.Workload, row.Short90*100)
		}
	}
	// The drifting API mixture is the hardest workload at admission time.
	api := res.Row("BurstGPT-API")
	d1 := res.Row("Distribution-1")
	if api.MAE0 <= d1.MAE0 {
		t.Errorf("API mixture MAE %.2f not above uniform D1 %.2f", api.MAE0, d1.MAE0)
	}
}

func TestAblationShapes(t *testing.T) {
	res := RunAblation(Options{Seed: 1, Scale: 0.08})
	for _, study := range []string{"block-size", "history-window", "multi-sample",
		"resampling", "strategy", "eviction-policy", "prefill-budget"} {
		if len(res.Study(study)) < 2 {
			t.Fatalf("study %s missing rows", study)
		}
	}
	// Eviction policies must finish everything; only swap moves KV bytes.
	for _, row := range res.Study("eviction-policy") {
		if row.Finished == 0 {
			t.Fatalf("eviction policy %s finished nothing", row.Config)
		}
	}
	// 16-token blocks waste physical memory relative to token granularity.
	bs := res.Study("block-size")
	var b1, b16 *AblationRow
	for i := range bs {
		switch bs[i].Config {
		case "block=1":
			b1 = &bs[i]
		case "block=16":
			b16 = &bs[i]
		}
	}
	if b1 == nil || b16 == nil {
		t.Fatal("block-size rows missing")
	}
	if b16.PhysMemUtil-b16.MemUtil <= b1.PhysMemUtil-b1.MemUtil {
		t.Error("block=16 should show more fragmentation than block=1")
	}
}

// TestFrameworkThroughputOrdering: under light load with no memory
// pressure, TensorRT-LLM's faster kernels give a higher raw throughput than
// TGI's slower ones. Figure 9's runs load every framework to its knee, so
// this regime is pinned here.
func TestFrameworkThroughputOrdering(t *testing.T) {
	cluster := hw.NewCluster(hw.A100_80G, 1)
	tp := map[string]float64{}
	for _, fw := range fig9Frameworks {
		e, err := fw.newEngine(model.Llama2_7B, cluster, 5, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.SubmitAll(workload.Build(workload.ShareGPT, rng.New(6), 40, 1, 512))
		tp[fw.name] = e.Run().Throughput()
	}
	if tp["TensorRT-LLM"] <= tp["TGI"] {
		t.Fatalf("TensorRT-LLM %v not above TGI %v under light load", tp["TensorRT-LLM"], tp["TGI"])
	}
}
