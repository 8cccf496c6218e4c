package cluster

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/request"
)

// TestPhaseSetOnlyHere keeps a replica's lifecycle in one place: no program
// file of this package assigns a replica's phase, down or billed spans (or
// anything inside them), or sets one in a replica literal, anywhere but in
// Pool.transition, which keeps the spans and the accepting set in step with
// the phase (doc.go, "Replica lifecycle").
func TestPhaseSetOnlyHere(t *testing.T) {
	guarded := map[string]bool{"phase": true, "down": true, "spans": true}
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files, writers := 0, 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files++
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Name.Name == "transition" && fn.Recv != nil {
				writers++
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch s := n.(type) {
				case *ast.AssignStmt:
					lhs = s.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{s.X}
				case *ast.CompositeLit:
					if id, ok := s.Type.(*ast.Ident); ok && id.Name == "replica" {
						for _, el := range s.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok && guarded[kv.Key.(*ast.Ident).Name] {
								t.Errorf("%s: %s builds a replica with %s set; change a replica's lifecycle through Pool.transition",
									fset.Position(kv.Pos()), fn.Name.Name, kv.Key.(*ast.Ident).Name)
							}
						}
					}
				}
				for _, e := range lhs {
					for e != nil {
						switch x := e.(type) {
						case *ast.SelectorExpr:
							if guarded[x.Sel.Name] {
								t.Errorf("%s: %s assigns .%s; change a replica's lifecycle through Pool.transition",
									fset.Position(x.Pos()), fn.Name.Name, x.Sel.Name)
							}
							e = x.X
						case *ast.IndexExpr:
							e = x.X
						default:
							e = nil
						}
					}
				}
				return true
			})
		}
	}
	if files < 8 || writers != 1 {
		t.Fatalf("parsed %d program files and found %d Pool.transition; the walk missed the package", files, writers)
	}
}

// TestReplicaLifecycleWalk walks one planner pool through every phase change
// the autoscaler and the fault path make, the rare ones included: a replica
// drained before its wake and taken back (waking again until the wake), one
// whose wake fires while it drains (it stays draining), and a crash while
// draining (cold, no second scale-in). After each step it checks the phases,
// the accepting set, the counted replicas and the scale-out/in counts, and at
// the end every replica's billed time.
func TestReplicaLifecycleWalk(t *testing.T) {
	c := MustNewCluster(ClusterConfig{
		Pools: []Config{{
			Replicas: replicas(3, 10_000), Policy: FutureHeadroom,
			Planner: &PlannerConfig{SLA: metrics.SLASmall, Min: 1, Max: 3, Interval: 5, Predictor: HoltPredictor, ActivationDelay: 1},
		}},
		Faults: &FaultConfig{Schedule: faults.Script{{At: 5, Kind: faults.Crash, Pool: 0, Replica: 2, Duration: 1}}},
	})
	p := c.pools[0]
	for i, rep := range p.reps {
		rep.eng.Submit(request.New(int64(i+1), 100, 50, 100, 0)) // busy: a scale-in drains it
	}
	names := []string{"cold", "waking", "serving", "draining"}
	check := func(step, want string) {
		t.Helper()
		var b strings.Builder
		for _, rep := range p.reps {
			b.WriteString(names[rep.phase])
			if rep.down {
				b.WriteString("+down")
			}
			b.WriteString(" ")
		}
		out, in := p.ScaleEvents()
		fmt.Fprintf(&b, "| accepting %d | active %d out %d in %d", len(p.accepting), p.ActiveReplicas(), out, in)
		if got := b.String(); got != want {
			t.Fatalf("%s:\n got %s\nwant %s", step, got, want)
		}
	}
	activate := func(at float64, rep int) { c.handle(event{at: at, kind: evActivate, rep: rep}) }

	check("start", "serving cold cold | accepting 1 | active 1 out 0 in 0")
	p.applyTarget(1, 2, p.reps)
	check("scale out at 1", "serving waking cold | accepting 1 | active 2 out 1 in 0")
	p.applyTarget(1.5, 1, p.reps)
	check("drain before the wake", "serving draining cold | accepting 1 | active 1 out 1 in 1")
	p.applyTarget(1.7, 2, p.reps)
	check("taken back before the wake", "serving waking cold | accepting 1 | active 2 out 2 in 1")
	activate(2, 1)
	check("wake at 2", "serving serving cold | accepting 2 | active 2 out 2 in 1")
	p.applyTarget(2.5, 1, p.reps)
	check("drain after the wake", "serving draining cold | accepting 1 | active 1 out 2 in 2")
	p.applyTarget(3, 3, p.reps)
	check("taken back, then a cold one woken", "serving serving waking | accepting 2 | active 3 out 4 in 2")
	p.applyTarget(3.5, 2, p.reps)
	check("the waking one drains", "serving serving draining | accepting 2 | active 2 out 4 in 3")
	activate(4, 2)
	check("its wake fires while it drains", "serving serving draining | accepting 2 | active 2 out 4 in 3")
	activate(4, 1)
	check("a stale wake", "serving serving draining | accepting 2 | active 2 out 4 in 3")
	p.applyTarget(4.5, 3, p.reps)
	check("taken back after its wake", "serving serving serving | accepting 3 | active 3 out 5 in 3")
	p.applyTarget(4.8, 2, p.reps)
	check("drains again", "serving serving draining | accepting 2 | active 2 out 5 in 4")
	c.crashReplica(event{at: 5, kind: evCrash, rep: 0})
	check("crash while draining", "serving serving cold+down | accepting 2 | active 2 out 5 in 4")
	c.recoverReplica(event{at: 6, kind: evRecover, rep: 0})
	check("repaired, stays cold", "serving serving cold | accepting 2 | active 2 out 5 in 4")

	for i, want := range []float64{10, 9, 2} {
		if got := p.reps[i].billedSecs(0, 10); got != want {
			t.Errorf("replica %d billed %v s of [0, 10], want %v", i, got, want)
		}
	}
	if got := p.reps[2].billedSecs(4, 4.5); got != 0.5 {
		t.Errorf("replica 2 billed %v s of [4, 4.5], want 0.5", got)
	}
}
