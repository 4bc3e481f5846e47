package vm_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dragprof/internal/heap"
	"dragprof/internal/mj"
	"dragprof/internal/vm"
)

func TestChainTableInterning(t *testing.T) {
	ct := vm.NewChainTable()
	a := ct.Intern(-1, 1, 10)
	b := ct.Intern(-1, 1, 10)
	if a != b {
		t.Error("identical chains not interned")
	}
	c := ct.Intern(a, 2, 20)
	d := ct.Intern(a, 2, 21)
	if c == d {
		t.Error("distinct chains merged")
	}
	if ct.Len() != 3 {
		t.Errorf("table size = %d, want 3", ct.Len())
	}
	nodes := ct.Expand(c)
	if len(nodes) != 2 || nodes[0].Method != 1 || nodes[1].Line != 20 {
		t.Errorf("expand = %+v", nodes)
	}
	if got := ct.Expand(-1); got != nil {
		t.Errorf("empty chain expands to %v", got)
	}
}

func TestChainTableSuffix(t *testing.T) {
	ct := vm.NewChainTable()
	id := int32(-1)
	for i := int32(0); i < 5; i++ {
		id = ct.Intern(id, i, i*10)
	}
	s2 := ct.Suffix(id, 2)
	nodes := ct.Expand(s2)
	if len(nodes) != 2 || nodes[0].Method != 3 || nodes[1].Method != 4 {
		t.Errorf("suffix nodes = %+v", nodes)
	}
	if ct.Suffix(id, 0) != id || ct.Suffix(id, 9) != id {
		t.Error("suffix must be identity when depth covers the chain")
	}
}

func TestChainTableInternProperty(t *testing.T) {
	// Interning is a function: equal (parent, method, line) triples give
	// equal ids, and expansion reverses interning.
	ct := vm.NewChainTable()
	f := func(ms, ls []uint8) bool {
		n := len(ms)
		if len(ls) < n {
			n = len(ls)
		}
		if n > 12 {
			n = 12
		}
		id := int32(-1)
		for i := 0; i < n; i++ {
			id = ct.Intern(id, int32(ms[i]), int32(ls[i]))
		}
		id2 := int32(-1)
		for i := 0; i < n; i++ {
			id2 = ct.Intern(id2, int32(ms[i]), int32(ls[i]))
		}
		if id != id2 {
			return false
		}
		nodes := ct.Expand(id)
		if len(nodes) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if nodes[i].Method != int32(ms[i]) || nodes[i].Line != int32(ls[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// eventCollector records every event for assertion.
type eventCollector struct {
	allocs []string
	uses   []vm.UseKind
}

func (c *eventCollector) Alloc(h heap.Handle, o *heap.Object, site int32, chain int32, clock int64) {
	c.allocs = append(c.allocs, "alloc")
}

func (c *eventCollector) Use(h heap.Handle, o *heap.Object, chain int32, clock int64, kind vm.UseKind) {
	c.uses = append(c.uses, kind)
}

func TestUseEventKinds(t *testing.T) {
	prog, _, err := mj.CompileWithStdlib([]string{"t.mj"}, map[string]string{"t.mj": `
class Cell {
    int v;
    int get() { return v; }
}
class Main {
    static void main() {
        Cell c = new Cell();
        c.v = 1;           // putfield
        int x = c.v;       // getfield
        int y = c.get();   // invoke (+ getfield inside)
        int[] a = new int[3];
        a[0] = x + y;      // array store
        int z = a[0];      // array load
        int n = a.length;  // array length
        synchronized (c) { // monitor enter/exit
            z = z + n;
        }
        printInt(z);
        println("done");   // native handle dereference
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	col := &eventCollector{}
	m, err := vm.New(prog, vm.Config{Listener: col})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	counts := map[vm.UseKind]int{}
	for _, k := range col.uses {
		counts[k]++
	}
	// Every use category of Section 2.1.1 must appear.
	for _, k := range []vm.UseKind{vm.UseGetField, vm.UsePutField, vm.UseInvoke,
		vm.UseMonitor, vm.UseArray, vm.UseNative} {
		if counts[k] == 0 {
			t.Errorf("no %v events recorded (counts: %v)", k, counts)
		}
	}
	if counts[vm.UseMonitor] != 2 {
		t.Errorf("monitor events = %d, want 2 (enter+exit)", counts[vm.UseMonitor])
	}
	if len(col.allocs) == 0 {
		t.Error("no allocation events")
	}
}

func TestUseKindStrings(t *testing.T) {
	for k := vm.UseGetField; k <= vm.UseNative; k++ {
		if strings.Contains(k.String(), "?") {
			t.Errorf("kind %d unnamed", k)
		}
	}
}

func TestChainDescribe(t *testing.T) {
	prog, _, err := mj.CompileWithStdlib([]string{"t.mj"}, map[string]string{"t.mj": `
class Main {
    static void inner() {
        int[] a = new int[10];
        a[0] = 1;
    }
    static void outer() { inner(); }
    static void main() { outer(); }
}`})
	if err != nil {
		t.Fatal(err)
	}
	var gotChain int32 = -1
	lst := &chainGrabber{}
	m, err := vm.New(prog, vm.Config{Listener: lst})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	gotChain = lst.lastChain
	desc := m.Chains().Describe(prog, gotChain, 0)
	if !strings.Contains(desc, "Main.main") || !strings.Contains(desc, "Main.outer") ||
		!strings.Contains(desc, "Main.inner") {
		t.Errorf("chain = %q, want main > outer > inner", desc)
	}
	short := m.Chains().Describe(prog, gotChain, 1)
	if strings.Contains(short, "Main.main") {
		t.Errorf("depth-1 chain still shows the caller: %q", short)
	}
}

type chainGrabber struct {
	lastChain int32
}

func (g *chainGrabber) Alloc(h heap.Handle, o *heap.Object, site int32, chain int32, clock int64) {
	if o.Kind == heap.KindArray {
		g.lastChain = chain
	}
}

func (g *chainGrabber) Use(heap.Handle, *heap.Object, int32, int64, vm.UseKind) {}

func TestChainTableInternMatchesMap(t *testing.T) {
	// Differential check of the open-addressed index against the map it
	// replaced: the same triples in the same order must get the same ids,
	// dense and in first-seen order, across many index growths. Parents
	// include negative values and lines reach the int32 extremes, so every
	// bit of the packed key matters to the hash.
	ct := vm.NewChainTable()
	ref := map[vm.ChainNode]int32{}
	var order []vm.ChainNode
	rng := rand.New(rand.NewSource(1))
	pick := func() vm.ChainNode {
		n := vm.ChainNode{Method: rng.Int31n(40), Line: rng.Int31n(200)}
		switch rng.Intn(6) {
		case 0:
			n.Parent = -1
		case 1:
			n.Parent = -1 - rng.Int31n(1000)
		case 2:
			n.Parent = math.MinInt32 + rng.Int31n(4)
		default:
			n.Parent = rng.Int31n(int32(len(order) + 1))
		}
		switch rng.Intn(8) {
		case 0:
			n.Line = math.MaxInt32 - rng.Int31n(4)
		case 1:
			n.Line = 1 << (16 + rng.Intn(15))
		}
		if len(order) > 0 && rng.Intn(3) == 0 {
			n = order[rng.Intn(len(order))] // a repeat: must hit
		}
		return n
	}
	for i := 0; i < 40000; i++ {
		n := pick()
		want, seen := ref[n]
		if !seen {
			want = int32(len(order))
			ref[n] = want
			order = append(order, n)
		}
		if got := ct.Intern(n.Parent, n.Method, n.Line); got != want {
			t.Fatalf("step %d: Intern(%+v) = %d, want %d (seen before: %v)", i, n, got, want, seen)
		}
	}
	if len(order) < 10000 {
		t.Fatalf("only %d distinct triples; the test must cross several index growths", len(order))
	}
	if ct.Len() != len(order) {
		t.Fatalf("table holds %d nodes, reference %d", ct.Len(), len(order))
	}
	for id, n := range ct.Nodes() {
		if n != order[id] {
			t.Fatalf("node %d = %+v, want %+v", id, n, order[id])
		}
	}
}
