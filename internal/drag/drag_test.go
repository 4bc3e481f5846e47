package drag_test

import (
	"reflect"
	"strings"
	"testing"

	"dragprof/internal/drag"
	"dragprof/internal/mj"
	"dragprof/internal/profile"
	"dragprof/internal/vm"
)

// profileSrc compiles and profiles a MiniJava program.
func profileSrc(t *testing.T, src string) *profile.Profile {
	t.Helper()
	prog, _, err := mj.CompileWithStdlib([]string{"t.mj"}, map[string]string{"t.mj": src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p, m, err := profile.Run(prog, "test", vm.Config{})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, m.Output())
	}
	return p
}

const draggyProgram = `
class Holder {
    static int[] keep;
}
class Main {
    static void churn(int rounds) {
        for (int i = 0; i < rounds; i = i + 1) {
            int[] garbage = new int[1024];
            garbage[0] = i;
        }
    }
    static void main() {
        // A large array, used once early, then kept reachable by a
        // static field while unrelated allocation churns: pure drag.
        Holder.keep = new int[65536];
        Holder.keep[0] = 1;
        churn(2000);
    }
}`

func TestDragDetectsStaticLeak(t *testing.T) {
	p := profileSrc(t, draggyProgram)
	rep := drag.Analyze(p, drag.Options{})

	if rep.TotalObjects == 0 || rep.ReachableIntegral == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.InUseIntegral >= rep.ReachableIntegral {
		t.Fatalf("in-use integral %d should be below reachable %d",
			rep.InUseIntegral, rep.ReachableIntegral)
	}
	if len(rep.ByNestedSite) == 0 {
		t.Fatal("no nested-site groups")
	}
	top := rep.ByNestedSite[0]
	if !strings.Contains(top.Desc, "Main.main") {
		t.Errorf("top drag site = %q, want the Main.main array allocation", top.Desc)
	}
	// The leaked array is 64Ki ints = 256 KiB + header; its drag should
	// dominate: drag time is nearly the whole run (~2000 * 4 KiB churn).
	if top.Drag < rep.TotalDrag/2 {
		t.Errorf("top site drag %d should dominate total drag %d", top.Drag, rep.TotalDrag)
	}
}

func TestLifetimeInvariant(t *testing.T) {
	p := profileSrc(t, draggyProgram)
	for _, r := range p.Records {
		if r.Create > r.Collect {
			t.Fatalf("record %d: create %d > collect %d", r.AllocID, r.Create, r.Collect)
		}
		if r.Used() && (r.LastUse < r.Create || r.LastUse > r.Collect) {
			t.Fatalf("record %d: last use %d outside [create %d, collect %d]",
				r.AllocID, r.LastUse, r.Create, r.Collect)
		}
		if r.DragTime() < 0 || r.InUseTime() < 0 {
			t.Fatalf("record %d: negative interval", r.AllocID)
		}
		if r.InUseTime()+r.DragTime() != r.LifeTime() {
			t.Fatalf("record %d: in-use %d + drag %d != lifetime %d",
				r.AllocID, r.InUseTime(), r.DragTime(), r.LifeTime())
		}
	}
}

func TestNeverUsedClassification(t *testing.T) {
	p := profileSrc(t, `
class Wasted {
    int[] pad;
    Wasted() { pad = new int[256]; }
}
class Holder {
    static Wasted[] keep;
}
class Main {
    static void main() {
        Holder.keep = new Wasted[100];
        for (int i = 0; i < 100; i = i + 1) {
            Holder.keep[i] = new Wasted();
        }
        // Churn so the never-used objects accumulate drag.
        for (int i = 0; i < 2000; i = i + 1) {
            int[] g = new int[1024];
            g[0] = i;
        }
    }
}`)
	rep := drag.Analyze(p, drag.Options{})
	var wastedGroup *drag.Group
	for _, g := range rep.BySite {
		if strings.Contains(g.Desc, "new Wasted") {
			wastedGroup = g
			break
		}
	}
	if wastedGroup == nil {
		t.Fatal("no group for the Wasted allocation site")
	}
	// Wasted objects are used only in their constructor; the analyzer
	// must classify them as never-used (pattern 1, dead code removal).
	if wastedGroup.NeverUsedFraction() != 1 {
		t.Errorf("never-used fraction = %v, want 1 (ctor-only use)", wastedGroup.NeverUsedFraction())
	}
	if wastedGroup.Pattern != drag.PatternDeadCode {
		t.Errorf("pattern = %v, want PatternDeadCode", wastedGroup.Pattern)
	}
}

func TestCurveShape(t *testing.T) {
	p := profileSrc(t, draggyProgram)
	c := drag.BuildCurve(p, 256)
	if len(c.Times) == 0 {
		t.Fatal("empty curve")
	}
	if len(c.Times) != len(c.Reachable) || len(c.Times) != len(c.InUse) {
		t.Fatal("curve series lengths differ")
	}
	for i := range c.Times {
		if c.InUse[i] > c.Reachable[i] {
			t.Fatalf("sample %d: in-use %d exceeds reachable %d", i, c.InUse[i], c.Reachable[i])
		}
		if c.Reachable[i] < 0 || c.InUse[i] < 0 {
			t.Fatalf("sample %d: negative size", i)
		}
	}
	// The leaked 256 KiB array keeps reachable elevated over in-use in
	// the churn phase.
	mid := len(c.Times) / 2
	if c.Reachable[mid]-c.InUse[mid] < 200<<10 {
		t.Errorf("mid-run drag gap = %d bytes, want >= 200 KiB", c.Reachable[mid]-c.InUse[mid])
	}
}

func TestCompareSavings(t *testing.T) {
	orig := profileSrc(t, draggyProgram)
	// Revised: assign null to the static after the last use.
	revised := profileSrc(t, `
class Holder {
    static int[] keep;
}
class Main {
    static void churn(int rounds) {
        for (int i = 0; i < rounds; i = i + 1) {
            int[] garbage = new int[1024];
            garbage[0] = i;
        }
    }
    static void main() {
        Holder.keep = new int[65536];
        Holder.keep[0] = 1;
        Holder.keep = null;
        churn(2000);
    }
}`)
	or := drag.Analyze(orig, drag.Options{})
	rr := drag.Analyze(revised, drag.Options{})
	cmp := drag.Compare(or, rr)
	if cmp.SpaceSavingPct <= 0 {
		t.Errorf("space saving = %.2f%%, want positive", cmp.SpaceSavingPct)
	}
	if cmp.DragSavingPct <= 10 {
		t.Errorf("drag saving = %.2f%%, want substantial", cmp.DragSavingPct)
	}
	if cmp.ReducedReachable >= cmp.OriginalReachable {
		t.Errorf("revised reachable %.4f should be below original %.4f",
			cmp.ReducedReachable, cmp.OriginalReachable)
	}
}

func TestLogRoundTrip(t *testing.T) {
	p := profileSrc(t, draggyProgram)
	var buf strings.Builder
	if err := profile.WriteBinaryLog(&buf, p, profile.BinaryOptions{Compress: true}); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := profile.ReadLog(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Fatal("read-back differs from the profiled run")
	}
	a := drag.Analyze(p, drag.Options{})
	b := drag.Analyze(back, drag.Options{})
	if a.TotalDrag != b.TotalDrag || a.ReachableIntegral != b.ReachableIntegral {
		t.Errorf("analysis diverges after round trip: drag %d vs %d", a.TotalDrag, b.TotalDrag)
	}
	if len(a.ByNestedSite) != len(b.ByNestedSite) {
		t.Errorf("group count diverges: %d vs %d", len(a.ByNestedSite), len(b.ByNestedSite))
	}
	for i := range a.ByNestedSite {
		if a.ByNestedSite[i].Desc != b.ByNestedSite[i].Desc || a.ByNestedSite[i].Drag != b.ByNestedSite[i].Drag {
			t.Errorf("group %d diverges: %+v vs %+v", i, a.ByNestedSite[i], b.ByNestedSite[i])
		}
	}
}

// TestParsePatternRoundTrip: every pattern survives String and back, the
// way a served site summary carries it; an unknown rendering is an error.
func TestParsePatternRoundTrip(t *testing.T) {
	all := []drag.Pattern{drag.PatternNone, drag.PatternDeadCode, drag.PatternLazyAlloc,
		drag.PatternAssignNull, drag.PatternHighVariance}
	seen := make(map[string]bool, len(all))
	for _, p := range all {
		s := p.String()
		if seen[s] {
			t.Fatalf("two patterns render as %q", s)
		}
		seen[s] = true
		got, err := drag.ParsePattern(s)
		if err != nil {
			t.Fatalf("ParsePattern(%q): %v", s, err)
		}
		if got != p {
			t.Errorf("ParsePattern(%q) = %v, want %v", s, got, p)
		}
	}
	if _, err := drag.ParsePattern("mostly-used"); err == nil {
		t.Error("ParsePattern accepted an unknown pattern")
	}
}
