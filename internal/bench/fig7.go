package bench

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// Fig7Point is one (clients → goodput) sample of a Figure 7 curve.
type Fig7Point struct {
	Clients    int
	Goodput    float64
	Throughput float64
	SLARate    float64
	Evictions  int
	Finished   int
}

// Fig7Curve is one scheduler's line within a panel.
type Fig7Curve struct {
	Scheduler string
	Points    []Fig7Point
}

// PeakGoodput returns the curve's best goodput.
func (c Fig7Curve) PeakGoodput() float64 {
	best := 0.0
	for _, p := range c.Points {
		if p.Goodput > best {
			best = p.Goodput
		}
	}
	return best
}

// GoodputAt returns the goodput at the given client count (0 if absent).
func (c Fig7Curve) GoodputAt(clients int) float64 {
	for _, p := range c.Points {
		if p.Clients == clients {
			return p.Goodput
		}
	}
	return 0
}

// Fig7Panel is one (model, dataset) panel with one curve per scheduler.
type Fig7Panel struct {
	Model   string
	Dataset string
	SLA     metrics.SLA
	Curves  []Fig7Curve
}

// Curve returns the curve whose scheduler name starts with prefix, or nil.
func (p *Fig7Panel) Curve(prefix string) *Fig7Curve {
	for i := range p.Curves {
		if startsWith(p.Curves[i].Scheduler, prefix) {
			return &p.Curves[i]
		}
	}
	return nil
}

// Fig7Result holds every panel of Figure 7.
type Fig7Result struct {
	Panels []Fig7Panel
}

// Panel returns the (model, dataset) panel, or nil.
func (f *Fig7Result) Panel(model, dataset string) *Fig7Panel {
	for i := range f.Panels {
		if f.Panels[i].Model == model && f.Panels[i].Dataset == dataset {
			return &f.Panels[i]
		}
	}
	return nil
}

// fig7Setup is one model row of Figure 7.
type fig7Setup struct {
	spec    model.Spec
	cluster hw.Cluster
	sla     metrics.SLA
	clients []int
}

// fig7Dataset pairs a generator with its max_new_tokens setting.
type fig7Dataset struct {
	gen    workload.Generator
	maxNew int
}

// Models controls which model rows run; empty means all three.
type Fig7Options struct {
	Options
	// Models filters the model rows by display-name prefix ("Llama2-7B"…).
	Models []string
	// Datasets filters by dataset name prefix.
	Datasets []string
}

// RunFigure7 reproduces Figure 7: goodput under increasing closed-loop
// client counts, for conservative / aggressive / Past-Future schedulers,
// across model sizes and the four datasets. SLA: (TTFT<10s, MTPOT<1.5s)
// for 7B/13B, (15s, 5s) for 70B.
func RunFigure7(fopts Fig7Options) *Fig7Result {
	opts := fopts.Options.normalized()
	smallClients := []int{10, 20, 30, 40, 60, 80, 100}
	bigClients := []int{100, 200, 300, 400, 500}
	if opts.Scale < 0.3 {
		smallClients = []int{10, 40, 100}
		bigClients = []int{100, 300, 500}
	}
	setups := []fig7Setup{
		{model.Llama2_7B, hw.NewCluster(hw.A100_80G, 1), metrics.SLASmall, smallClients},
		{model.Llama2_13B, hw.NewCluster(hw.A100_80G, 1), metrics.SLASmall, smallClients},
		{model.Llama2_70B, hw.NewCluster(hw.A100_80G, 4), metrics.SLALarge, bigClients},
	}
	datasets := []fig7Dataset{
		{workload.ShareGPTO1, 8192},
		{workload.Distribution1, 4096},
		{workload.Distribution2, 5120},
		{workload.Distribution3, 4096},
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

	duration := 900 * opts.Scale
	if duration < 120 {
		duration = 120
	}
	warmup := duration / 3

	res := &Fig7Result{}
	for _, setup := range setups {
		if !nameSelected(setup.spec.Name, fopts.Models) {
			continue
		}
		pm := perf.MustNew(perf.Config{Model: setup.spec, Cluster: setup.cluster})
		for _, ds := range datasets {
			if !nameSelected(ds.gen.Name(), fopts.Datasets) {
				continue
			}
			panel := Fig7Panel{Model: setup.spec.Name, Dataset: ds.gen.Name(), SLA: setup.sla}
			tbl := &Table{
				Title:  fmt.Sprintf("Figure 7: %s / %s (%s)", setup.spec.Name, ds.gen.Name(), setup.sla),
				Header: []string{"Scheduler", "Clients", "Goodput(tok/s)", "Throughput", "SLA%", "Evictions"},
			}
			// Warm start: the server has been serving this workload (the
			// paper's cold start resolves "in a few minutes" and all
			// measurements are steady-state).
			seedHist := historySample(ds.gen, opts.Seed+99, 500, ds.maxNew)
			for si, sd := range scheds {
				curve := Fig7Curve{}
				for _, clients := range setup.clients {
					seed := opts.Seed + uint64(si*1000+clients)
					eng := engine.MustNew(engine.Config{
						Perf:      pm,
						Scheduler: sd.make(seed),
						// SLA-aware clients abandon requests queued past
						// their TTFT budget.
						QueueTimeout: setup.sla.TTFT,
						SeedHistory:  seedHist,
					})
					workload.NewClosedLoop(eng, ds.gen, rng.New(seed+7), clients, ds.maxNew, 0, duration)
					r := eng.RunUntil(duration)
					sum := metrics.Summarize(r.Finished, setup.sla, warmup, duration)
					sum.AddTimedOut(r.TimedOut, warmup, duration)
					pt := Fig7Point{
						Clients:    clients,
						Goodput:    sum.Goodput,
						Throughput: sum.Throughput,
						SLARate:    sum.SLARate(),
						Evictions:  r.Evictions,
						Finished:   sum.Total,
					}
					curve.Points = append(curve.Points, pt)
					if curve.Scheduler == "" {
						curve.Scheduler = r.Scheduler
					}
					tbl.Add(r.Scheduler, itoa(clients), f0tok(pt.Goodput), f0tok(pt.Throughput),
						pct(pt.SLARate), itoa(pt.Evictions))
				}
				panel.Curves = append(panel.Curves, curve)
			}
			res.Panels = append(res.Panels, panel)
			tbl.Fprint(opts.Out)
		}
	}
	return res
}

// historySample draws n output lengths from the generator to warm-start the
// engines' history windows.
func historySample(gen workload.Generator, seed uint64, n, maxNew int) []int {
	r := rng.New(seed)
	out := make([]int, n)
	for i := range out {
		_, o := gen.Sample(r)
		if o > maxNew {
			o = maxNew
		}
		out[i] = o
	}
	return out
}

func nameSelected(name string, filters []string) bool {
	if len(filters) == 0 {
		return true
	}
	for _, f := range filters {
		if startsWith(name, f) {
			return true
		}
	}
	return false
}
