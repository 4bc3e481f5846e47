package opt_test

import (
	"testing"

	"dragprof/internal/bench"
	"dragprof/internal/bytecode"
	"dragprof/internal/drag"
	"dragprof/internal/mj"
	"dragprof/internal/opt"
	"dragprof/internal/profile"
	"dragprof/internal/vm"
)

func compileSrc(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	prog, _, err := mj.CompileWithStdlib([]string{"t.mj"}, map[string]string{"t.mj": src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func compileWorkload(t *testing.T, b *bench.Benchmark) *bytecode.Program {
	t.Helper()
	cp, err := b.Compile(bench.Original, bench.OriginalInput)
	if err != nil {
		t.Fatalf("compile %s: %v", b.Name, err)
	}
	return cp.Program
}

func runProgram(t *testing.T, p *bytecode.Program) (string, vm.Cost) {
	t.Helper()
	m, err := vm.New(p, vm.Config{})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m.Output(), m.CostReport()
}

func optimize(t *testing.T, p *bytecode.Program, passes ...string) *opt.Result {
	t.Helper()
	res, err := opt.Optimize(p, opt.Options{Passes: passes})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return res
}

// optimizedHashes pins the ProgramHash of each workload after the default
// passes: the optimizer is deterministic, so any drift in what it emits
// is a change to review, not noise.
var optimizedHashes = map[string]string{
	"javac":    "d0cc87ebba299e3f1aaf5cd3b7547f48",
	"db":       "e66c043ccfca43ef53360d3d8ea05cef",
	"jack":     "e0e5c4f28c3bb0aec5a36dd8ad7bb64d",
	"raytrace": "5ed2ce45e9a09e5d6518fdf3ad9327e3",
	"jess":     "cffa3334200dab5841df6792c52579cf",
	"mc":       "2f502ba3611335cf5393eae44335ece7",
	"euler":    "dbcf89f8c151dda51ba187bdf6a487f9",
	"juru":     "b69b61720ab034f30f9aba79b4cac719",
	"analyzer": "018b1ff79bf174a7fe6e51b5fcd20e8c",
}

// TestWorkloadDifferential is the safety harness the whole optimizer hangs
// on: for each of the nine workloads the optimized program must produce
// byte-identical output, optimizing the optimized program must be a no-op
// (same ProgramHash, zero rewrites), and the optimized bytecode must hash
// to its pinned value.
func TestWorkloadDifferential(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			want, _ := runProgram(t, compileWorkload(t, b))

			p := compileWorkload(t, b)
			res := optimize(t, p)
			got, cost := runProgram(t, p)
			if got != want {
				t.Fatalf("optimized output differs\nwant %q\ngot  %q", want, got)
			}
			if res.Stats.RegionSites > 0 && cost.RegionFrees == 0 {
				t.Logf("note: %d region sites converted but none freed at runtime", res.Stats.RegionSites)
			}

			// Idempotence: a second run must change nothing.
			res2 := optimize(t, p)
			if res2.Hash != res.Hash {
				t.Fatalf("not idempotent: first hash %s, second %s", res.Hash, res2.Hash)
			}
			s := res2.Stats
			if s.Devirtualized+s.RegionSites+s.DeadStoresNulled+s.NullStoresRemoved+s.UnreachableRemoved+s.NopsRemoved != 0 {
				t.Fatalf("second optimizer run rewrote code: %+v", s)
			}
			if want := optimizedHashes[b.Name]; res.Hash != want {
				t.Fatalf("optimized ProgramHash %s, want pinned %s", res.Hash, want)
			}
		})
	}
}

// TestPassOrderingPermutations is the fuzz-style ordering check: every
// permutation of the three passes must yield byte-identical program output
// on every workload.
func TestPassOrderingPermutations(t *testing.T) {
	perms := [][]string{
		{"devirt", "region", "dce"},
		{"devirt", "dce", "region"},
		{"region", "devirt", "dce"},
		{"region", "dce", "devirt"},
		{"dce", "devirt", "region"},
		{"dce", "region", "devirt"},
	}
	if testing.Short() {
		perms = perms[1:3] // default order is already covered by TestWorkloadDifferential
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			want, _ := runProgram(t, compileWorkload(t, b))
			for _, perm := range perms {
				p := compileWorkload(t, b)
				optimize(t, p, perm...)
				got, _ := runProgram(t, p)
				if got != want {
					t.Fatalf("pass order %v changed output\nwant %q\ngot  %q", perm, want, got)
				}
			}
		})
	}
}

// TestDevirtRewritesMonomorphicCall checks a single-implementation virtual
// call becomes a direct call and still computes the same result.
func TestDevirtRewritesMonomorphicCall(t *testing.T) {
	src := `
class Shape {
    int area() { return 0; }
}
class Square extends Shape {
    int side;
    Square(int s) { side = s; }
    int area() { return side * side; }
}
class Main {
    static void main() {
        Shape s = new Square(7);
        printInt(s.area());
    }
}`
	want, _ := runProgram(t, compileSrc(t, src))

	p := compileSrc(t, src)
	res := optimize(t, p, "devirt")
	if res.Stats.Devirtualized < 1 {
		t.Fatalf("expected at least one devirtualized site, stats %+v", res.Stats)
	}
	got, _ := runProgram(t, p)
	if got != want {
		t.Fatalf("devirtualized output differs: want %q got %q", want, got)
	}
	for _, a := range res.Actions {
		if a.Pass == "devirt" && a.MethodHash == "" {
			t.Errorf("devirt action missing methodHash anchor: %+v", a)
		}
	}
}

// TestRegionAllocFreesAtFrameExit checks that a method-local allocation is
// converted, that the VM actually frees it when the frame pops, and that the
// profiler sees a (weakly) smaller drag.
func TestRegionAllocFreesAtFrameExit(t *testing.T) {
	src := `
class Main {
    static int fill(int n) {
        int[] buf = new int[4096];
        int i = 0;
        while (i < n) {
            buf[i] = i;
            i = i + 1;
        }
        return buf[0] + buf[n - 1];
    }
    static void main() {
        int total = 0;
        int round = 0;
        while (round < 20) {
            total = total + fill(64);
            round = round + 1;
        }
        printInt(total);
    }
}`
	base := compileSrc(t, src)
	want, _ := runProgram(t, base)
	pb, _, err := profile.Run(compileSrc(t, src), "region-base", vm.Config{GCInterval: 1 << 20})
	if err != nil {
		t.Fatalf("profile base: %v", err)
	}
	baseDrag := drag.Analyze(pb, drag.Options{}).TotalDrag

	p := compileSrc(t, src)
	res := optimize(t, p, "region")
	if res.Stats.RegionSites < 1 {
		t.Fatalf("expected the buffer site to be region-converted, stats %+v", res.Stats)
	}
	got, cost := runProgram(t, p)
	if got != want {
		t.Fatalf("region-optimized output differs: want %q got %q", want, got)
	}
	if cost.RegionFrees < 20 {
		t.Fatalf("expected >=20 region frees (one per fill call), got %d", cost.RegionFrees)
	}

	po, _, err := profile.Run(p, "region-opt", vm.Config{GCInterval: 1 << 20})
	if err != nil {
		t.Fatalf("profile optimized: %v", err)
	}
	optDrag := drag.Analyze(po, drag.Options{}).TotalDrag
	if optDrag >= baseDrag {
		t.Fatalf("region allocation did not reduce drag: base %d, optimized %d", baseDrag, optDrag)
	}
}

// TestRegionUnderAllCollectors runs a region-optimized program under every
// collector (the generational one has the nursery-accounting FreeObserver
// path) and checks output and region frees.
func TestRegionUnderAllCollectors(t *testing.T) {
	src := `
class Node {
    int v;
    Node(int v) { this.v = v; }
}
class Main {
    static int sum(int n) {
        int s = 0;
        int i = 0;
        while (i < n) {
            Node tmp = new Node(i);
            s = s + tmp.v;
            i = i + 1;
        }
        return s;
    }
    static void main() { printInt(sum(500)); }
}`
	want, _ := runProgram(t, compileSrc(t, src))
	p := compileSrc(t, src)
	res := optimize(t, p)
	if res.Stats.RegionSites < 1 {
		t.Fatalf("Node allocation should be region-converted, stats %+v", res.Stats)
	}
	for _, col := range []vm.CollectorKind{vm.MarkSweep, vm.MarkCompact, vm.Generational} {
		m, err := vm.New(p, vm.Config{Collector: col, GCInterval: 8 << 10})
		if err != nil {
			t.Fatalf("%s: vm.New: %v", col, err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("%s: run: %v", col, err)
		}
		if got := m.Output(); got != want {
			t.Fatalf("%s: output differs: want %q got %q", col, want, got)
		}
		if m.CostReport().RegionFrees == 0 {
			t.Errorf("%s: expected region frees", col)
		}
	}
}

// TestRegionSkipsEscapingSites: a site stored into a static must never be
// region-converted.
func TestRegionSkipsEscapingSites(t *testing.T) {
	src := `
class Keep {
    static int[] last;
}
class Main {
    static void stash() {
        int[] a = new int[16];
        a[0] = 9;
        Keep.last = a;
    }
    static void main() {
        stash();
        printInt(Keep.last[0]);
    }
}`
	p := compileSrc(t, src)
	optimize(t, p, "region")
	for _, m := range p.Methods {
		for _, in := range m.Code {
			if in.Op == bytecode.RegionNewObject || in.Op == bytecode.RegionNewArray {
				if p.Classes[m.Class].Name == "Main" && m.Name == "stash" {
					t.Fatalf("escaping allocation in stash was region-converted")
				}
			}
		}
	}
	want := "9\n"
	got, _ := runProgram(t, p)
	if got != want {
		t.Fatalf("output %q, want %q", got, want)
	}
}

// TestDCENullsDeadStoresAndCompacts: a liveness-dead store is rewritten to a
// null store, and the Nops the rewrite leaves behind are compacted away.
func TestDCENullsDeadStoresAndCompacts(t *testing.T) {
	src := `
class Big {
    int[] pad;
    Big() { pad = new int[512]; }
}
class Main {
    static int f(int n) {
        Big unused = new Big();
        return n + 1;
    }
    static void main() { printInt(f(41)); }
}`
	want, _ := runProgram(t, compileSrc(t, src))
	p := compileSrc(t, src)
	res := optimize(t, p, "dce")
	if res.Stats.DeadStoresNulled < 1 {
		t.Fatalf("expected the unused store to be nulled, stats %+v", res.Stats)
	}
	if res.Stats.NopsRemoved < 1 {
		t.Fatalf("expected compaction to remove the editor Nops, stats %+v", res.Stats)
	}
	got, _ := runProgram(t, p)
	if got != want {
		t.Fatalf("dce output differs: want %q got %q", want, got)
	}
	// No Nop survives a dce pass.
	for _, m := range p.Methods {
		for pc, in := range m.Code {
			if in.Op == bytecode.Nop {
				t.Fatalf("Nop left at %s pc %d", m.Name, pc)
			}
		}
	}
}

// TestOptimizeRejectsUnknownPass guards the CLI's -passes flag plumbing.
func TestOptimizeRejectsUnknownPass(t *testing.T) {
	p := compileSrc(t, `class Main { static void main() { printInt(1); } }`)
	if _, err := opt.Optimize(p, opt.Options{Passes: []string{"inline"}}); err == nil {
		t.Fatal("expected error for unknown pass")
	}
}

// TestExceptionUnwindFreesRegions: region objects in frames popped by an
// exception unwind are freed too.
func TestExceptionUnwindFreesRegions(t *testing.T) {
	src := `
class Main {
    static int risky(int n) {
        int[] buf = new int[256];
        buf[0] = n;
        if (n > 3) {
            throw new RuntimeException("big");
        }
        return buf[0];
    }
    static void main() {
        int total = 0;
        int i = 0;
        while (i < 8) {
            try {
                total = total + risky(i);
            } catch (RuntimeException e) {
                total = total + 100;
            }
            i = i + 1;
        }
        printInt(total);
    }
}`
	want, _ := runProgram(t, compileSrc(t, src))
	p := compileSrc(t, src)
	res := optimize(t, p)
	got, cost := runProgram(t, p)
	if got != want {
		t.Fatalf("output differs: want %q got %q", want, got)
	}
	if res.Stats.RegionSites >= 1 && cost.RegionFrees < 8 {
		t.Fatalf("expected a region free per risky() call (including unwinds), got %d", cost.RegionFrees)
	}
}
