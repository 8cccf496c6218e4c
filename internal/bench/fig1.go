package bench

import (
	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// Fig1Cell is one (regime, scheduler) panel of Figure 1: consumed vs
// future-required memory and the eviction rate, plus a downsampled consumed-
// memory time series for plotting.
type Fig1Cell struct {
	Regime      string // "decode-heavy" or "prefill-heavy"
	Scheduler   string
	ConsumedMem float64 // time-weighted mean occupancy (0..1)
	FutureReq   float64 // mean ground-truth future peak / capacity
	FutureMax   float64
	EvictedFrac float64   // evictions per request
	Series      []float64 // consumed-memory fraction, downsampled
}

// Fig1Result holds all six cells of Figure 1.
type Fig1Result struct {
	Cells []Fig1Cell
}

// Cell returns the cell for (regime, scheduler-prefix), or nil.
func (f *Fig1Result) Cell(regime, schedPrefix string) *Fig1Cell {
	for i := range f.Cells {
		c := &f.Cells[i]
		if c.Regime == regime && startsWith(c.Scheduler, schedPrefix) {
			return c
		}
	}
	return nil
}

// RunFigure1 reproduces Figure 1: the three scheduler families compared on
// a decode-heavy (Distribution-1) and a prefill-heavy (Distribution-3)
// workload, showing that conservative wastes memory, aggressive overcommits
// the future (evictions), and Past-Future tracks capacity without either.
func RunFigure1(opts Options) *Fig1Result {
	opts = opts.normalized()
	n := scaled(800, opts.Scale, 40)
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})

	regimes := []struct {
		label string
		gen   workload.Uniform
	}{
		{"decode-heavy", workload.Distribution1},
		{"prefill-heavy", workload.Distribution3},
	}
	type schedDef struct {
		label string
		make  func(seed uint64) core.Scheduler
	}
	scheds := []schedDef{
		{"conservative", coMaker(1.0)},
		{"aggressive", agMaker(0.99)},
		{"past-future", pfMaker(0.05)},
	}

	res := &Fig1Result{}
	tbl := &Table{
		Title:  "Figure 1: consumed vs future-required memory and eviction rate",
		Header: []string{"Regime", "Scheduler", "ConsumedMem", "FutureReq(mean)", "FutureReq(max)", "EvictedReqs"},
	}
	for _, reg := range regimes {
		for si, sd := range scheds {
			reqs := workload.Build(reg.gen, rng.New(opts.Seed), n, 1, reg.gen.OutHi)
			eng := engine.MustNew(engine.Config{Perf: pm, Scheduler: sd.make(opts.Seed + uint64(si))})
			truth := core.NewMStarObserver(nil)
			eng.AddAdmitHook(truth.Observe)
			var series []float64
			iter := 0
			eng.AddIterationHook(func(now float64, it engine.Iteration) {
				iter++
				if iter%50 == 0 {
					series = append(series, float64(it.KVTokens)/float64(eng.Pool().CapacityTokens()))
				}
			})
			eng.SubmitAll(reqs)
			r := eng.Run()
			cell := Fig1Cell{
				Regime:      reg.label,
				Scheduler:   r.Scheduler,
				ConsumedMem: r.MemUtilization,
				FutureReq:   truth.FutureRequiredMean(),
				FutureMax:   truth.FutureRequiredMax(),
				EvictedFrac: float64(r.Evictions) / float64(n),
				Series:      series,
			}
			res.Cells = append(res.Cells, cell)
			tbl.Add(cell.Regime, cell.Scheduler, pct(cell.ConsumedMem),
				pct(cell.FutureReq), pct(cell.FutureMax), pct(cell.EvictedFrac))
		}
	}
	tbl.Fprint(opts.Out)
	return res
}
