package cluster

import (
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/request"
)

// Fleet is the monolithic serving fleet: the degenerate one-pool RoleMixed
// Cluster, kept as the PR 2 API. All routing, probing, and autoscaling
// mechanics live on the embedded Pool; the event clock lives on the
// Cluster. A Config with Role left at the RoleMixed zero value builds the
// exact pre-disaggregation fleet, decision for decision.
type Fleet struct {
	*Pool
	clu *Cluster
}

// New validates the configuration and builds a fleet. A non-nil
// cfg.Admission puts the cluster-front admission pipeline (EDF hold +
// deadline shedding) in front of the fleet — the monolithic API gets the
// same overload protection as an explicit cluster, decision for decision.
func New(cfg Config) (*Fleet, error) {
	adm, rec := cfg.Admission, cfg.Recorder
	cfg.Admission, cfg.Recorder = nil, nil // cluster-wide concerns: lift them out of the pool config
	clu, err := NewCluster(ClusterConfig{Pools: []Config{cfg}, Admission: adm, Recorder: rec})
	if err != nil {
		return nil, err
	}
	return &Fleet{Pool: clu.Pool(0), clu: clu}, nil
}

// MustNew is New for statically valid configurations.
func MustNew(cfg Config) *Fleet {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Serve routes the requests (sorted by arrival time internally), advancing
// replica engines in global timestamp order through the event heap so each
// routing decision observes every replica's state as of the request's
// arrival, then drains the fleet until deadline. It returns each replica's
// result. One-shot: a fleet serves one stream.
func (f *Fleet) Serve(reqs []*request.Request, deadline float64) []*engine.Result {
	return f.clu.Serve(reqs, deadline)
}

// ServeStream is Serve over a pull-based arrival source: next returns
// requests in nondecreasing ArrivalTime order and nil at end of stream, so
// a multi-million-request replay never materializes its slice. See
// Cluster.ServeStream.
func (f *Fleet) ServeStream(next func() *request.Request, deadline float64) []*engine.Result {
	return f.clu.ServeStream(next, deadline)
}

// EventsProcessed returns how many events the fleet popped off its event
// heap; see Cluster.EventsProcessed.
func (f *Fleet) EventsProcessed() int64 { return f.clu.EventsProcessed() }

// Duration returns the simulated span of the served stream (after Serve).
func (f *Fleet) Duration() float64 { return f.clu.Duration() }

// ShedRequests returns every request refused by admission control, in shed
// order (nil without cfg.Admission). Complete after Serve.
func (f *Fleet) ShedRequests() []*request.Request { return f.clu.ShedRequests() }

// HeldRequests returns the number of arrivals currently held at the fleet
// front (0 after Serve: the run flush-sheds leftovers).
func (f *Fleet) HeldRequests() int { return f.clu.HeldRequests() }
