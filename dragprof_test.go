package dragprof_test

import (
	"strings"
	"testing"

	"dragprof"
)

const facadeApp = `
class Store {
    static int[] blob;
}
class Main {
    static void main() {
        Store.blob = new int[20000];
        Store.blob[0] = 1;
        int acc = Store.blob[0];
        for (int i = 0; i < 1000; i = i + 1) {
            int[] tmp = new int[64];
            tmp[0] = i;
            acc = acc + tmp[0];
        }
        printInt(acc);
    }
}`

func compileApp(t *testing.T) *dragprof.Program {
	t.Helper()
	prog, err := dragprof.Compile(dragprof.Source{Name: "app.mj", Text: facadeApp})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func TestFacadeRun(t *testing.T) {
	prog := compileApp(t)
	exec, err := prog.Run(dragprof.RunOptions{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(exec.Output, "499501") {
		t.Errorf("output = %q", exec.Output)
	}
	if exec.Cost.Instructions == 0 || exec.Cost.AllocBytes == 0 {
		t.Errorf("cost = %+v", exec.Cost)
	}
}

func TestFacadeProfileAndAnalyze(t *testing.T) {
	prog := compileApp(t)
	prof, err := prog.ProfileRun(dragprof.RunOptions{GCIntervalBytes: 8 << 10})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	if prof.NumObjects() == 0 || prof.TotalAllocationBytes() == 0 {
		t.Fatal("empty profile")
	}
	rep := prof.Analyze(dragprof.AnalysisOptions{})
	if rep.ReachableIntegral() <= rep.InUseIntegral() {
		t.Errorf("reach %d should exceed in-use %d (the blob drags)",
			rep.ReachableIntegral(), rep.InUseIntegral())
	}
	sites := rep.TopSites(3)
	if len(sites) == 0 {
		t.Fatal("no sites")
	}
	top := sites[0]
	if !strings.Contains(top.Site, "Main.main") {
		t.Errorf("top site = %q", top.Site)
	}
	if top.DragShare <= 0.3 {
		t.Errorf("top drag share = %v", top.DragShare)
	}
	if top.Suggestion == "" || top.Pattern == "" {
		t.Errorf("classification missing: %+v", top)
	}
}

func TestFacadeLogRoundTrip(t *testing.T) {
	prog := compileApp(t)
	prof, err := prog.ProfileRun(dragprof.RunOptions{GCIntervalBytes: 8 << 10})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	var buf strings.Builder
	if err := prof.WriteBinaryLog(&buf, true); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := dragprof.ReadLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	a := prof.Analyze(dragprof.AnalysisOptions{})
	b := back.Analyze(dragprof.AnalysisOptions{})
	if a.TotalDrag() != b.TotalDrag() {
		t.Errorf("drag diverges after round trip: %d vs %d", a.TotalDrag(), b.TotalDrag())
	}
}

func TestFacadeCompare(t *testing.T) {
	orig := compileApp(t)
	origProf, err := orig.ProfileRun(dragprof.RunOptions{GCIntervalBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fixed := strings.Replace(facadeApp,
		"int acc = Store.blob[0];",
		"int acc = Store.blob[0];\n        Store.blob = null;", 1)
	revProg, err := dragprof.Compile(dragprof.Source{Name: "app.mj", Text: fixed})
	if err != nil {
		t.Fatal(err)
	}
	revProf, err := revProg.ProfileRun(dragprof.RunOptions{GCIntervalBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sav := dragprof.Compare(
		origProf.Analyze(dragprof.AnalysisOptions{}),
		revProf.Analyze(dragprof.AnalysisOptions{}))
	if sav.SpaceSavingPct <= 30 {
		t.Errorf("space saving = %.2f%%, want > 30%% (the 80 KB blob dies early)", sav.SpaceSavingPct)
	}
	if sav.RevisedReachableMB2 >= sav.OriginalReachableMB2 {
		t.Errorf("revised %.4f should be below original %.4f",
			sav.RevisedReachableMB2, sav.OriginalReachableMB2)
	}
}

func TestFacadeCurve(t *testing.T) {
	prog := compileApp(t)
	prof, err := prog.ProfileRun(dragprof.RunOptions{GCIntervalBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	c := prof.Curve(128)
	if len(c.TimesBytes) == 0 || len(c.TimesBytes) != len(c.ReachableBytes) {
		t.Fatalf("bad curve shape: %d/%d", len(c.TimesBytes), len(c.ReachableBytes))
	}
	for i := range c.TimesBytes {
		if c.InUseBytes[i] > c.ReachableBytes[i] {
			t.Fatalf("in-use above reachable at sample %d", i)
		}
	}
}

func TestFacadeDisassemble(t *testing.T) {
	prog := compileApp(t)
	text := prog.Disassemble()
	if !strings.Contains(text, "method main") || !strings.Contains(text, "newarray") {
		t.Errorf("disassembly missing expected content")
	}
}

func TestFacadeCompileErrors(t *testing.T) {
	_, err := dragprof.Compile(dragprof.Source{Name: "bad.mj", Text: "class X { int f() { } }"})
	if err == nil {
		t.Fatal("expected a compile error")
	}
}

func TestFacadeCollectors(t *testing.T) {
	for _, kind := range []string{"mark-sweep", "mark-compact", "generational"} {
		prog := compileApp(t)
		exec, err := prog.Run(dragprof.RunOptions{Collector: kind, HeapBytes: 4 << 20})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !strings.Contains(exec.Output, "499501") {
			t.Errorf("%s: output = %q", kind, exec.Output)
		}
	}
}
