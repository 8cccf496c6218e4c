package faults

import (
	"fmt"
	"math"
	"testing"

	"github.com/lightllm-go/lightllm/internal/rng"
)

func TestValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	pools := []int{2, 3}
	good := Script{
		{At: 0, Kind: Crash, Pool: 0, Replica: 1, Duration: 5},
		{At: 1, Kind: Crash, Pool: 1, Replica: 0, Duration: inf}, // a permanent failure
		{At: 2, Kind: Slowdown, Pool: 1, Replica: 2, Duration: 1, Factor: 1.5},
		{At: 3, Kind: LinkFailure, Count: 2},
	}
	if err := Validate(good, pools); err != nil {
		t.Fatal(err)
	}
	bad := []Fault{
		{At: -1, Kind: Crash, Duration: 1},                        // negative time
		{At: 0, Kind: Crash, Pool: 2, Duration: 1},                // pool out of range
		{At: 0, Kind: Crash, Pool: 1, Replica: 3, Duration: 1},    // replica out of range
		{At: 0, Kind: Crash, Duration: 0},                         // no repair span
		{At: 0, Kind: Slowdown, Duration: 1, Factor: 1},           // no slowdown
		{At: 0, Kind: Slowdown, Duration: 0, Factor: 2},           // no window
		{At: 0, Kind: LinkFailure, Count: -1},                     // negative count
		{At: 0, Kind: Kind(99), Pool: 0, Replica: 0, Duration: 1}, // unknown kind
		// NaN fails every comparison: each range must be an inside test.
		{At: nan, Kind: Crash, Duration: 1},               // NaN time: never fires
		{At: inf, Kind: LinkFailure, Count: 1},            // never arms
		{At: 0, Kind: Slowdown, Duration: nan, Factor: 2}, // NaN window
		{At: 0, Kind: Slowdown, Duration: 1, Factor: nan}, // NaN step times
		{At: 0, Kind: Slowdown, Duration: 1, Factor: inf}, // a stalled replica
	}
	for i, f := range bad {
		if err := Validate(Script{f}, pools); err == nil {
			t.Fatalf("bad fault %d accepted: %+v", i, f)
		}
	}
}

func TestSortedIsStable(t *testing.T) {
	s := Script{
		{At: 5, Kind: Crash, Pool: 0, Replica: 0, Duration: 1},
		{At: 1, Kind: LinkFailure, Count: 1},
		{At: 5, Kind: Crash, Pool: 0, Replica: 1, Duration: 1},
	}
	got := Sorted(s)
	if got[0].Kind != LinkFailure {
		t.Fatalf("sorted head %+v, want the t=1 link failure", got[0])
	}
	// Equal timestamps keep script order (replica 0 before replica 1).
	if got[1].Replica != 0 || got[2].Replica != 1 {
		t.Fatalf("equal-time faults reordered: %+v", got[1:])
	}
	// The input script is untouched.
	if s[0].At != 5 {
		t.Fatal("Sorted mutated its input")
	}
}

// TestGenerateDeterministic pins the stochastic storm contract: the same
// seed replays the same schedule; the per-replica crash/repair spans
// alternate inside the horizon and never overlap on one replica.
func TestGenerateDeterministic(t *testing.T) {
	gen := func(seed uint64) Script {
		return Generate(rng.New(seed), 1, 4, 30, 10, 200)
	}
	a, b := gen(7), gen(7)
	if len(a) == 0 {
		t.Fatal("MTBF 30 over a 200s horizon generated no crashes")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed generated different schedules")
	}
	if fmt.Sprint(a) == fmt.Sprint(gen(8)) {
		t.Fatal("different seeds generated identical schedules")
	}
	if err := Validate(a, []int{1, 4}); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	lastUp := map[int]float64{}
	for _, f := range a {
		if f.Kind != Crash {
			t.Fatalf("generated non-crash fault %+v", f)
		}
		if f.At >= 200 {
			t.Fatalf("crash at %v past the 200s horizon", f.At)
		}
		if f.At < lastUp[f.Replica] {
			t.Fatalf("replica %d crashes overlap: crash at %v before prior repair %v",
				f.Replica, f.At, lastUp[f.Replica])
		}
		lastUp[f.Replica] = f.At + f.Duration
	}
}

func TestGeneratePanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive MTBF accepted")
		}
	}()
	Generate(rng.New(1), 0, 1, 0, 10, 100)
}
