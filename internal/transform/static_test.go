package transform_test

import (
	"testing"

	"dragprof/internal/bench"
	"dragprof/internal/bytecode"
	"dragprof/internal/drag"
	"dragprof/internal/profile"
	"dragprof/internal/transform"
	"dragprof/internal/vm"
)

func compileBench(t *testing.T, name string) *bytecode.Program {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := b.Compile(bench.Original, bench.OriginalInput)
	if err != nil {
		t.Fatal(err)
	}
	return cp.Program
}

func profileNamed(t *testing.T, p *bytecode.Program, name string) (*drag.Report, string) {
	t.Helper()
	prof, m, err := profile.Run(p, name, vm.Config{GCInterval: bench.DefaultGCInterval})
	if err != nil {
		t.Fatalf("profile %s: %v", name, err)
	}
	return drag.Analyze(prof, drag.Options{}), m.Output()
}

// TestStaticTransformEuler reproduces the paper's euler rewrite without
// a profile run: the heap liveness proof alone must find the
// mesh.scratch phase kill, and applying it must remove at least half of
// the program's drag while leaving output byte-identical.
func TestStaticTransformEuler(t *testing.T) {
	baseline := compileBench(t, "euler")
	beforeRep, beforeOut := profileNamed(t, baseline, "euler/base")

	p := compileBench(t, "euler")
	actions, err := transform.Rewrite(p, nil)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	applied := 0
	killed := false
	for _, a := range actions {
		if a.Applied {
			applied++
		}
		if a.Applied && a.SiteDesc == "Mesh.scratch" {
			killed = true
		}
	}
	if !killed {
		t.Fatalf("Mesh.scratch kill not applied; actions: %+v", actions)
	}
	if applied == 0 {
		t.Fatal("no actions applied")
	}

	afterRep, afterOut := profileNamed(t, p, "euler/static")
	if afterOut != beforeOut {
		t.Fatalf("output changed by static transform:\nbefore: %q\nafter:  %q", beforeOut, afterOut)
	}
	if beforeRep.TotalDrag == 0 {
		t.Fatal("baseline has no drag to remove")
	}
	reduction := 1 - float64(afterRep.TotalDrag)/float64(beforeRep.TotalDrag)
	t.Logf("euler drag: %d -> %d (%.1f%% reduction)",
		beforeRep.TotalDrag, afterRep.TotalDrag, 100*reduction)
	if reduction < 0.5 {
		t.Errorf("drag reduction %.1f%% < 50%%", 100*reduction)
	}
}

// TestStaticTransformPreservesOutput runs the static transform over the
// whole suite: whatever it decides to apply, observable behaviour must
// not change, and the result must still verify.
func TestStaticTransformPreservesOutput(t *testing.T) {
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			baseline := compileBench(t, name)
			_, beforeOut := profileNamed(t, baseline, name+"/base")

			p := compileBench(t, name)
			if _, err := transform.Rewrite(p, nil); err != nil {
				t.Fatalf("Rewrite: %v", err)
			}
			if err := bytecode.Verify(p); err != nil {
				t.Fatalf("verify: %v", err)
			}
			_, afterOut := profileNamed(t, p, name+"/static")
			if afterOut != beforeOut {
				t.Fatalf("output changed on %s", name)
			}
		})
	}
}

// TestStaticTransformIdempotentGuard: applying the transform to an
// already-transformed program must not corrupt the guard chain.
func TestStaticTransformDeterministic(t *testing.T) {
	p1 := compileBench(t, "euler")
	a1, err := transform.Rewrite(p1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2 := compileBench(t, "euler")
	a2, err := transform.Rewrite(p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) {
		t.Fatalf("action counts differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Errorf("action %d differs: %+v vs %+v", i, a1[i], a2[i])
		}
	}
	m1 := p1.Methods[p1.Main]
	m2 := p2.Methods[p2.Main]
	if len(m1.Code) != len(m2.Code) {
		t.Errorf("transformed main lengths differ: %d vs %d", len(m1.Code), len(m2.Code))
	}
}
