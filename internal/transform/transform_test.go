package transform_test

import (
	"strings"
	"testing"

	"dragprof/internal/bytecode"
	"dragprof/internal/drag"
	"dragprof/internal/mj"
	"dragprof/internal/profile"
	"dragprof/internal/transform"
	"dragprof/internal/vm"
)

func compile(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	p, _, err := mj.CompileWithStdlib([]string{"t.mj"}, map[string]string{"t.mj": src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func runProg(t *testing.T, p *bytecode.Program) string {
	t.Helper()
	m, err := vm.New(p, vm.Config{})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m.Output()
}

func profileProg(t *testing.T, p *bytecode.Program) *drag.Report {
	t.Helper()
	prof, _, err := profile.Run(p, "t", vm.Config{GCInterval: 8 << 10})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return drag.Analyze(prof, drag.Options{})
}

const leakySrc = `
class Main {
    static int churn(int rounds, int acc) {
        for (int r = 0; r < rounds; r = r + 1) {
            int[] g = new int[256];
            g[0] = acc;
            acc = acc + g[0];
        }
        return acc;
    }
    static void main() {
        int[] big = new int[30000];
        big[0] = 7;
        int x = big[0];
        printInt(churn(2000, x));
    }
}`

func TestInsertNullAfterLastUses(t *testing.T) {
	p := compile(t, leakySrc)
	orig := runProg(t, p)

	p2 := compile(t, leakySrc)
	m := p2.MethodByName("Main", "main")
	// Slot 0 is big (static main has no this).
	n := transform.InsertNullAfterLastUses(m, 0)
	if n == 0 {
		t.Fatal("no null assignments inserted")
	}
	if err := bytecode.Verify(p2); err != nil {
		t.Fatalf("verify after insert: %v", err)
	}
	if out := runProg(t, p2); out != orig {
		t.Fatalf("output changed: %q vs %q", out, orig)
	}

	// Drag must shrink: the 120 KB array dies before the churn.
	before := profileProg(t, compile(t, leakySrc))
	after := profileProg(t, p2)
	if after.ReachableIntegral >= before.ReachableIntegral {
		t.Errorf("reachable integral did not shrink: %d -> %d",
			before.ReachableIntegral, after.ReachableIntegral)
	}
	saved := drag.Compare(before, after)
	if saved.SpaceSavingPct < 20 {
		t.Errorf("space saving %.2f%%, want >= 20%%", saved.SpaceSavingPct)
	}
}

const deadAllocSrc = `
class Cache {
    int[] data;
    Cache(int n) {
        data = new int[n];
        data[0] = n;
    }
}
class Holder {
    static Object[] keep;
}
class Main {
    static void main() {
        Holder.keep = new Object[4];
        Holder.keep[0] = new Cache(20000);
        int acc = 0;
        for (int r = 0; r < 1500; r = r + 1) {
            int[] g = new int[128];
            g[0] = r;
            acc = acc + g[0];
        }
        printInt(acc);
    }
}`

func TestRemoveDeadAllocation(t *testing.T) {
	p := compile(t, deadAllocSrc)
	orig := runProg(t, p)

	p2 := compile(t, deadAllocSrc)
	v := transform.NewValidator(p2)
	var site int32 = -1
	for _, in := range p2.MethodByName("Main", "main").Code {
		if in.Op == bytecode.NewObject && p2.Classes[in.A].Name == "Cache" {
			site = in.B
		}
	}
	if site < 0 {
		t.Fatal("Cache site not found")
	}
	if err := transform.RemoveDeadAllocation(v, site); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := bytecode.Verify(p2); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if out := runProg(t, p2); out != orig {
		t.Fatalf("output changed: %q vs %q", out, orig)
	}
	// The Cache allocation must be gone.
	for _, in := range p2.MethodByName("Main", "main").Code {
		if in.Op == bytecode.NewObject && p2.Classes[in.A].Name == "Cache" {
			t.Fatal("Cache allocation still present")
		}
	}
}

func TestRemoveDeadAllocationRejectsUsed(t *testing.T) {
	src := `
class Box {
    int v;
    Box(int n) { v = n; }
}
class Main {
    static void main() {
        Box b = new Box(5);
        printInt(b.v);
    }
}`
	p := compile(t, src)
	v := transform.NewValidator(p)
	var site int32 = -1
	for _, in := range p.MethodByName("Main", "main").Code {
		if in.Op == bytecode.NewObject && p.Classes[in.A].Name == "Box" {
			site = in.B
		}
	}
	if err := transform.RemoveDeadAllocation(v, site); err == nil {
		t.Fatal("removal of a used object must be rejected")
	}
}

const lazySrc = `
class Table {
    int[] data;
    Table(int n) { data = new int[n]; }
    int size() { if (data == null) { return 0; } return data.length; }
}
class Widget {
    int id;
    Table extras;
    Widget(int i) {
        id = i;
        extras = new Table(64);
    }
}
class Main {
    static void main() {
        int total = 0;
        Widget[] ws = new Widget[200];
        for (int i = 0; i < 200; i = i + 1) {
            ws[i] = new Widget(i);
            total = total + ws[i].id;
        }
        // Only one widget ever touches its extras.
        total = total + ws[7].extras.size();
        printInt(total);
    }
}`

func TestLazyAllocateField(t *testing.T) {
	p := compile(t, lazySrc)
	orig := runProg(t, p)

	p2 := compile(t, lazySrc)
	v := transform.NewValidator(p2)
	widget := p2.ClassByName("Widget")
	var slot int32 = -1
	for _, fd := range widget.Fields {
		if fd.Name == "extras" {
			slot = fd.Slot
		}
	}
	var site int32 = -1
	ctor := p2.MethodByName("Widget", "<init>")
	for _, in := range ctor.Code {
		if in.Op == bytecode.NewObject && p2.Classes[in.A].Name == "Table" {
			site = in.B
		}
	}
	if slot < 0 || site < 0 {
		t.Fatal("field or site not found")
	}
	plan, err := transform.LazyAllocateField(v, widget.ID, slot, site)
	if err != nil {
		t.Fatalf("lazy: %v", err)
	}
	if plan.Guarded == 0 {
		t.Fatal("no field loads rerouted")
	}
	if len(plan.Insertions) == 0 {
		t.Fatal("no anticipability insertion points computed")
	}
	if err := bytecode.Verify(p2); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if out := runProg(t, p2); out != orig {
		t.Fatalf("output changed: %q vs %q", out, orig)
	}

	// Count Table allocations executed: only widgets whose extras are
	// touched should allocate now.
	m2, _ := vm.New(p2, vm.Config{})
	_ = m2.Run()
	if allocs := m2.CostReport().Allocations; allocs >= 500 {
		t.Errorf("lazy version still allocates eagerly: %d allocations", allocs)
	}
}

// TestAutoTransformOnProfile drives the planner from a profile: the
// report's drag-ranked sites become candidates, and the never-used Cache
// allocation must be removed with output unchanged.
func TestAutoTransformOnProfile(t *testing.T) {
	p := compile(t, deadAllocSrc)
	prof, _, err := profile.Run(p, "t", vm.Config{GCInterval: 8 << 10})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	rep := drag.Analyze(prof, drag.Options{})

	var cands []transform.Candidate
	for _, g := range rep.BySite {
		if len(cands) < 5 && g.SiteID >= 0 && g.Drag > 0 {
			cands = append(cands, transform.Candidate{Site: g.SiteID, Pattern: g.Pattern})
		}
	}
	p2 := compile(t, deadAllocSrc)
	actions, err := transform.Rewrite(p2, cands)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	applied := 0
	for _, a := range actions {
		if a.Applied && a.Strategy == "dead-code removal" &&
			strings.Contains(a.SiteDesc, "Cache") {
			applied++
		}
	}
	if applied == 0 {
		t.Fatalf("expected the Cache removal to apply; actions: %+v", actions)
	}
	orig := runProg(t, compile(t, deadAllocSrc))
	if out := runProg(t, p2); out != orig {
		t.Fatalf("output changed: %q vs %q", out, orig)
	}
}

func TestLiveSlotFilterReducesReachable(t *testing.T) {
	// With the Agesen-style liveness filter, the dead `big` local stops
	// being a root without any code rewrite.
	p := compile(t, leakySrc)
	filter := transform.LiveSlotFilter(p)

	runWith := func(f func(int32, int, int32) bool) int64 {
		prof, _, err := profile.Run(p, "t", vm.Config{GCInterval: 8 << 10, LiveSlotFilter: f})
		if err != nil {
			t.Fatalf("profile: %v", err)
		}
		return drag.Analyze(prof, drag.Options{}).ReachableIntegral
	}
	plain := runWith(nil)
	filtered := runWith(filter)
	if filtered >= plain {
		t.Errorf("liveness-filtered roots should shrink reachable integral: %d -> %d", plain, filtered)
	}
}

const lazyMinSrc = `
class Table {
    int[] data;
    Table(int n) { data = new int[n]; }
    int size() { if (data == null) { return 0; } return data.length; }
}
class Widget {
    int id;
    Table extras;
    Widget(int i) { id = i; extras = new Table(32); }
}
class Main {
    static int probe(Widget w, int n) {
        int total = 0;
        if (n > 0) {
            total = total + w.extras.size();
        }
        total = total + w.extras.size();
        total = total + w.extras.size();
        return total;
    }
    static void main() {
        Widget w = new Widget(3);
        printInt(probe(w, 1) + probe(w, 0));
    }
}`

func TestLazyGuardPlacementMinimal(t *testing.T) {
	p := compile(t, lazyMinSrc)
	orig := runProg(t, p)

	p2 := compile(t, lazyMinSrc)
	v := transform.NewValidator(p2)
	widget := p2.ClassByName("Widget")
	var slot int32 = -1
	for _, fd := range widget.Fields {
		if fd.Name == "extras" {
			slot = fd.Slot
		}
	}
	var site int32 = -1
	for _, in := range p2.MethodByName("Widget", "<init>").Code {
		if in.Op == bytecode.NewObject && p2.Classes[in.A].Name == "Table" {
			site = in.B
		}
	}
	if slot < 0 || site < 0 {
		t.Fatal("field or site not found")
	}
	plan, err := transform.LazyAllocateField(v, widget.ID, slot, site)
	if err != nil {
		t.Fatalf("lazy: %v", err)
	}
	if !plan.Stable {
		t.Fatal("field is only written by the eager init; must be stable")
	}
	if plan.Total != 3 {
		t.Fatalf("expected 3 loads, got %d: %+v", plan.Total, plan.Points)
	}
	// The branch load and the join load need guards; the final
	// straight-line load sees the field available on every path.
	if plan.Guarded != 2 {
		t.Fatalf("expected 2 guarded loads, got %d: %+v", plan.Guarded, plan.Points)
	}
	if last := plan.Points[len(plan.Points)-1]; last.Guarded {
		t.Errorf("final load should be unguarded: %+v", plan.Points)
	}
	if err := bytecode.Verify(p2); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if out := runProg(t, p2); out != orig {
		t.Fatalf("output changed: %q vs %q", out, orig)
	}
}

const holdersSrc = `
class Holder {
    int[] data;
    Holder() {
        this.data = new int[64];
    }
}
class Main {
    static void main() {
        Holder h = new Holder();
        h.data[0] = 3;
        int[] big = new int[30000];
        big[0] = 7;
        int x = big[0];
        printInt(x + h.data[0]);
    }
}`

// TestRewriteDropsFieldHeldAssignNull: the validated tier plans null
// assignment only for sites whose object a local holds. A field-held
// candidate produces no action at all, not a rejected one.
func TestRewriteDropsFieldHeldAssignNull(t *testing.T) {
	p := compile(t, holdersSrc)
	site := func(what string) int32 {
		for _, s := range p.Sites {
			if strings.Contains(s.Desc, what) {
				return s.ID
			}
		}
		t.Fatalf("no site matching %q in %+v", what, p.Sites)
		return -1
	}
	field, local := site("Holder.<init>:5"), site("Main.main:12")
	for s, want := range map[int32]bytecode.Op{field: bytecode.PutField, local: bytecode.StoreLocal} {
		if st, err := transform.DescribeSite(p, s); err != nil || st.Consumer != want {
			t.Fatalf("site %d: DescribeSite = %+v, %v; want consumer %s", s, st, err, want)
		}
	}
	actions, err := transform.Rewrite(p, []transform.Candidate{
		{Site: field, Pattern: drag.PatternAssignNull},
		{Site: local, Pattern: drag.PatternAssignNull},
	})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	var sawLocal bool
	for _, a := range actions {
		if a.Tier != transform.TierValidated {
			continue
		}
		switch a.Site {
		case field:
			t.Errorf("field-held site planned: %+v", a)
		case local:
			sawLocal = a.Applied
		}
	}
	if !sawLocal {
		t.Errorf("local-held site not rewritten; actions: %+v", actions)
	}
}
