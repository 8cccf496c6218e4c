package cluster

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
)

// A run of coasted decode steps is one heap event: its replica is caught up
// lazily, before whatever lands inside the run (events.go). An engine with a
// token hook never coasts, so the same cluster with a no-op token hook on
// every engine pops one event per engine step — the per-step loop the lazy
// one must be indistinguishable from. TestCoastRunMatchesPerStepPath serves
// every scenario both ways.

// twinScenario is one cluster and its arrivals. build logs the cluster's
// routing into tr and attaches rec.
type twinScenario struct {
	name  string
	sla   metrics.SLA
	build func(seed uint64, rec obs.Recorder, tr *decisionTrace) (*Cluster, []*request.Request)
	// deadline ends the serve (0: when everything is done).
	deadline float64
}

// coastCells are the feature-matrix cells the twin test serves: every
// feature at once, and the cells that replaced its former scenarios, in
// their shapes — the disaggregated seam past its knee with and without the
// storm and under the salted storm on session traffic, chunked prefill on
// long documents under the storm, and the prefix cache's small pools under
// crashes.
var coastCells = map[string]bool{
	"all-on": true, "seam": true, "seam-storm": true, "prefix-storm": true, "chunked-storm": true, "prefix-cache-crashes": true,
}

func twinScenarios() []twinScenario {
	var scs []twinScenario
	for _, mc := range matrixCells() {
		if coastCells[mc.name] {
			scs = append(scs, twinScenario{name: mc.name, sla: mc.shapeOf().sla, build: mc.build})
		}
	}
	scs = append(scs, twinScenario{name: "exact-instants", sla: seamSLA, build: exactInstants})
	for _, policy := range []Policy{FutureHeadroom, LeastLoaded} {
		policy := policy
		// TestHerdBurstWithinOneStep's fleet: four identical replicas in
		// lock-step, so their step events tie to the bit.
		lockstep := func(seed uint64, rec obs.Recorder, tr *decisionTrace) (*Cluster, []*request.Request) {
			engines := lockstepReplicas(4, 20_000)
			for i, e := range engines {
				for k := 0; k < 6; k++ {
					e.Submit(request.New(int64(1000*(i+1)+k), 300, 400, 512, 0))
				}
			}
			return tr.traced(MustNewCluster(ClusterConfig{
				Pools:    []Config{{Replicas: engines, Policy: policy}},
				Recorder: rec,
			})), burst(1, 8, 1.0+float64(seed)*0.01, 0.00025)
		}
		scs = append(scs,
			// Same-instant groups and sub-step gaps, where a placement's
			// visibility decides the next pick.
			twinScenario{name: "placement-bursts/" + policy.String(), sla: seamSLA, build: func(seed uint64, rec obs.Recorder, tr *decisionTrace) (*Cluster, []*request.Request) {
				reqs := poissonReqs(240, 40, seed)
				for i := range reqs {
					reqs[i].ArrivalTime = reqs[i-i%6].ArrivalTime + float64(i%2)*1e-4
				}
				return tr.traced(MustNewCluster(ClusterConfig{
					Pools:    []Config{{Replicas: replicas(4, 12_000), Policy: policy}},
					Recorder: rec,
				})), reqs
			}},
			twinScenario{name: "lockstep-herd/" + policy.String(), sla: seamSLA, build: lockstep},
			// Served to a deadline inside the replicas' runs: the end of the
			// serve catches them up.
			twinScenario{name: "lockstep-deadline/" + policy.String(), sla: seamSLA, build: lockstep, deadline: 2.5},
		)
	}
	return scs
}

// exactInstants cuts a single replica's runs exactly at the start of a
// coasted step, once with each rule: a crash and a slowdown sort after a
// same-instant step, so the catch-up before them takes it; an arrival sorts
// before it, so the catch-up leaves it to the step event. Each instant is
// read off a run of the scenario as it stands so far — the first decode step
// after a given time whose engine reports it will coast the next one
// (engine.CoastEnd) — so it lands on a step start to the bit.
func exactInstants(seed uint64, rec obs.Recorder, tr *decisionTrace) (*Cluster, []*request.Request) {
	var script faults.Script
	var late []float64 // arrival times of the requests added at a step start
	arrivals := func() []*request.Request {
		reqs := poissonReqs(40, 8, seed)
		for i, at := range late {
			reqs = append(reqs, request.New(int64(10_000+i), 300, 120, 512, at))
		}
		return reqs
	}
	build := func(rec obs.Recorder, tr *decisionTrace) *Cluster {
		return tr.traced(MustNewCluster(ClusterConfig{
			Pools:    []Config{{Replicas: replicas(1, 20_000), Policy: FutureHeadroom}},
			Faults:   &FaultConfig{Schedule: script, Recover: true},
			Recorder: rec,
		}))
	}
	coastedStart := func(after float64) float64 {
		c := build(nil, &decisionTrace{})
		eng := c.pools[0].reps[0].eng
		at := math.Inf(1)
		eng.AddIterationHook(func(now float64, it engine.Iteration) {
			if it.Kind == "decode" && now > after && now < at && eng.CoastEnd() > now {
				at = now
			}
		})
		c.Serve(arrivals(), 1e9)
		if math.IsInf(at, 1) {
			panic(fmt.Sprintf("exactInstants seed %d: no coasted step after %v", seed, after))
		}
		return at
	}
	crashAt := coastedStart(1)
	script = append(script, faults.Fault{At: crashAt, Kind: faults.Crash, Duration: 0.4})
	slowAt := coastedStart(crashAt + 1)
	script = append(script, faults.Fault{At: slowAt, Kind: faults.Slowdown, Duration: 1.5, Factor: 2})
	late = append(late, coastedStart(slowAt+0.2))
	return build(rec, tr), arrivals()
}

// stateLog is the twin test's recorder: a Collector that also logs, at
// every emission the cluster makes itself — none of them inside an engine
// step — every replica's clock, request counts and probe lag. That is the
// state each cluster decision reads, and it must be the per-step loop's: a
// handler that ran before its catch-up shows up as an engine clock that
// trails, a catch-up that lost count of its steps as a short lag.
type stateLog struct {
	*obs.Collector
	c   *Cluster
	log strings.Builder
}

func (l *stateLog) note(what string, at float64) {
	fmt.Fprintf(&l.log, "%s %x", what, math.Float64bits(at))
	for _, p := range l.c.pools {
		for _, rep := range p.reps {
			fmt.Fprintf(&l.log, " %x/%d/%d/%v/%d", math.Float64bits(rep.eng.Clock()), rep.eng.RunningLen(), rep.eng.WaitingLen(),
				rep.estValid, rep.lag)
		}
	}
	l.log.WriteByte('\n')
}

func (l *stateLog) Arrive(at float64, r *request.Request) {
	l.note("arrive", at)
	l.Collector.Arrive(at, r)
}

func (l *stateLog) Hold(at float64, r *request.Request, held int) {
	l.note("hold", at)
	l.Collector.Hold(at, r, held)
}

func (l *stateLog) Release(at float64, r *request.Request, held int) {
	l.note("release", at)
	l.Collector.Release(at, r, held)
}

func (l *stateLog) Place(at float64, r *request.Request, pool, rep int, flavor string) {
	l.note("place", at)
	l.Collector.Place(at, r, pool, rep, flavor)
}

func (l *stateLog) Shed(at float64, r *request.Request, where string) {
	l.note("shed", at)
	l.Collector.Shed(at, r, where)
}

func (l *stateLog) XferBook(at float64, r *request.Request, fromPool, fromRep, toPool, toRep int, bytes int64, start, done float64) {
	l.note("book", at)
	l.Collector.XferBook(at, r, fromPool, fromRep, toPool, toRep, bytes, start, done)
}

func (l *stateLog) XferFail(at float64, r *request.Request, retryAt float64) {
	l.note("wire-fail", at)
	l.Collector.XferFail(at, r, retryAt)
}

func (l *stateLog) XferDeliver(at float64, r *request.Request, pool, rep int) {
	l.note("deliver", at)
	l.Collector.XferDeliver(at, r, pool, rep)
}

func (l *stateLog) Crash(at float64, pool, rep, orphans int) {
	l.note("crash", at)
	l.Collector.Crash(at, pool, rep, orphans)
}

func (l *stateLog) Recover(at float64, pool, rep int) {
	l.note("recover", at)
	l.Collector.Recover(at, pool, rep)
}

func (l *stateLog) PlanPoint(at float64, pool, target, active int) {
	l.note("plan", at)
	l.Collector.PlanPoint(at, pool, target, active)
}

// twinSide is what one serve of a scenario leaves for comparison.
type twinSide struct {
	trace                 decisionTrace
	state                 string // the stateLog
	out                   string // routed counts, handoffs, lost requests, every request's times
	spans, series, traced string // the collector's span CSV, time-series CSV and Perfetto bytes
	pops                  int64
	cuts                  [evXferRetry + 1]int
}

func serveTwin(t *testing.T, sc twinScenario, seed uint64, perStep bool) twinSide {
	t.Helper()
	var s twinSide
	rec := &stateLog{Collector: obs.NewCollector(1)}
	c, reqs := sc.build(seed, rec, &s.trace)
	rec.c = c
	col := rec.Collector
	if perStep {
		for _, p := range c.pools {
			for _, rep := range p.reps {
				rep.eng.AddTokenHook(func(float64, *request.Request) {})
			}
		}
	}
	deadline := sc.deadline
	if deadline == 0 {
		deadline = 1e9
	}
	results := c.Serve(reqs, deadline)
	s.trace.collect(c, results, sc.sla)
	s.pops, s.cuts, s.state = c.EventsProcessed(), c.cuts, rec.log.String()

	var b strings.Builder
	for _, p := range c.pools {
		fmt.Fprintf(&b, "pool %d routed %v\n", p.id, p.RoutedCounts())
	}
	for _, h := range c.Handoffs() {
		fmt.Fprintf(&b, "handoff req%d %d->%d prefilled=%x delivered=%x retries=%d\n", h.Req.ID, h.FromReplica, h.ToReplica,
			math.Float64bits(h.PrefillDoneAt), math.Float64bits(h.DeliveredAt), h.Retries)
	}
	for _, r := range c.LostRequests() {
		fmt.Fprintf(&b, "lost req%d\n", r.ID)
	}
	byID := map[int64]*request.Request{}
	lists := [][]*request.Request{c.ShedRequests(), c.LostRequests()}
	for _, res := range results {
		lists = append(lists, res.Finished, res.Failed, res.TimedOut, res.HandedOff)
	}
	for _, rs := range lists {
		for _, r := range rs {
			byID[r.ID] = r
		}
	}
	ids := make([]int64, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := byID[id]
		fmt.Fprintf(&b, "req%d %v gen=%d evict=%d adm=%d retries=%d", r.ID, r.Outcome, r.Generated, r.Evictions, r.Admissions, r.Retries)
		for _, f := range []float64{r.ArrivalTime, r.FirstTokenAt, r.LastEmitAt, r.MaxGap, r.EndedAt,
			r.PrefillDoneAt, r.DeliveredAt} {
			fmt.Fprintf(&b, " %x", math.Float64bits(f))
		}
		b.WriteByte('\n')
	}
	s.out = b.String()

	var spans, series, traced strings.Builder
	if err := col.WriteSpanCSV(&spans); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteTimeSeriesCSV(&series); err != nil {
		t.Fatal(err)
	}
	if err := col.WritePerfetto(&traced); err != nil {
		t.Fatal(err)
	}
	s.spans, s.series, s.traced = spans.String(), series.String(), traced.String()
	return s
}

// sameText fails at the first line two renderings of a run disagree on.
func sameText(t *testing.T, label, what, got, ref string) {
	t.Helper()
	if got == ref {
		return
	}
	g, r := strings.Split(got, "\n"), strings.Split(ref, "\n")
	for i := 0; i < len(g) && i < len(r); i++ {
		if g[i] != r[i] {
			t.Fatalf("%s: %s line %d differs\n coasting: %.300s\n per-step: %.300s", label, what, i+1, g[i], r[i])
		}
	}
	t.Fatalf("%s: %s has %d lines, the per-step twin's %d", label, what, len(g), len(r))
}

// TestCoastRunMatchesPerStepPath serves the feature-matrix cells of
// coastCells, bursty placements and the lock-step herd, plus runs cut at the
// exact start of a coasted step, twice: as built, and as the per-step twin.
// Decisions, the report, every request's times bit for bit, the span CSV,
// the time-series CSV and the Perfetto export must be equal. A case fails if
// it never coasted — popped no fewer heap events than its twin, so it
// compared the per-step loop with itself — and the test fails unless
// catch-ups cut runs before an arrival, a crash, a slowdown and a repair,
// and in each feature-matrix cell some coasted run ends at a refused
// admission round (the knee).
// Seeds follow CHAOS_SEEDS (make chaos).
func TestCoastRunMatchesPerStepPath(t *testing.T) {
	var cuts [evXferRetry + 1]int
	knee := map[string]int{}
	for _, sc := range twinScenarios() {
		for _, seed := range chaosSeeds(t) {
			sc, seed := sc, seed
			label := fmt.Sprintf("%s/seed=%d", sc.name, seed)
			t.Run(label, func(t *testing.T) {
				ref := serveTwin(t, sc, seed, true)
				got := serveTwin(t, sc, seed, false)
				compareTraces(t, label, got.trace, ref.trace)
				sameText(t, label, "state at the cluster's emissions", got.state, ref.state)
				sameText(t, label, "outcomes", got.out, ref.out)
				sameText(t, label, "span CSV", got.spans, ref.spans)
				sameText(t, label, "time-series CSV", got.series, ref.series)
				sameText(t, label, "Perfetto trace", got.traced, ref.traced)
				if ref.cuts != ([evXferRetry + 1]int{}) || ref.trace.kneeRounds != 0 {
					t.Fatalf("%s: the per-step twin caught up %v and refused %d rounds inside runs: its engines coasted",
						label, ref.cuts, ref.trace.kneeRounds)
				}
				if got.pops >= ref.pops {
					t.Fatalf("%s: %d heap events against the per-step twin's %d: nothing coasted", label, got.pops, ref.pops)
				}
				for k, n := range got.cuts {
					cuts[k] += n
				}
				knee[sc.name] += got.trace.kneeRounds
			})
		}
	}
	for _, cut := range []struct {
		kind evKind
		what string
	}{{evStep, "an arrival"}, {evCrash, "a crash"}, {evSlow, "a slowdown"}, {evRecover, "a repair"}} {
		if cuts[cut.kind] == 0 {
			t.Errorf("no catch-up before %s took a coasted step (catch-ups by kind: %v)", cut.what, cuts)
		}
	}
	for name := range coastCells {
		if knee[name] == 0 {
			t.Errorf("%s: no coasted run ended at a refused admission round (kneeProbe)", name)
		}
	}
}
