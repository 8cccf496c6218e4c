package cluster

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/request"
)

// TestRecorderNilRouteZeroAllocs pins the recorder-disabled routing hot
// path: with no recorder attached, the admission arrive→place cycle of a
// warm cluster allocates nothing per request beyond the pre-storm baseline
// (the heap storage is retained, the probe path reuses estimators, and
// every emission site is a nil check).
func TestRecorderNilRouteZeroAllocs(t *testing.T) {
	c := admissionCluster(2, 2, 50_000, 1, &AdmissionConfig{TTFTBudget: 100}, nil)
	warm := poissonReqs(200, 40, 7)
	c.Serve(warm, 1e9)

	a := c.adm
	r := request.New(int64(9_999), 400, 200, 256, c.endAt)
	a.arrive(c.endAt, r)
	allocs := testing.AllocsPerRun(200, func() {
		// The same request object re-arrives: tryPlace probes every replica
		// (the routing hot path) and places or holds; a held request is
		// drained by retry. Engine submission appends to warm queue storage.
		a.shedExpired(c.endAt)
		if a.tryPlace(c.endAt, r) {
			return
		}
	})
	if allocs != 0 {
		t.Fatalf("recorder-disabled admission/route path allocates %v per op, want 0", allocs)
	}
}
