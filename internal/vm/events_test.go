package vm_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dragprof/internal/heap"
	"dragprof/internal/mj"
	"dragprof/internal/profile"
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

func TestUseEventKinds(t *testing.T) {
	// Each object below is used by one kind of use event only, or has it
	// as its last use, so its record pins that kind's trailer update: the
	// kind, the count and the line of the last use. A constructor call is
	// an invoke use, so every Cell starts with one.
	prog, _, err := mj.CompileWithStdlib([]string{"t.mj"}, map[string]string{"t.mj": `
class Cell {
    int v;
    Cell() { }
    void nop() { }
}
class Main {
    static int sink;
    static void main() {
        Cell put = new Cell();
        put.v = 1;
        Cell get = new Cell();
        sink = get.v;
        Cell call = new Cell();
        call.nop();
        int[] lock = new int[1];
        synchronized (lock) { sink = sink + 1; }
        int[] store = new int[1];
        store[0] = 2;
        int[] load = new int[1];
        sink = load[0];
        int[] size = new int[1];
        sink = size.length;
        int[] src = new int[1];
        int[] dst = new int[1];
        arraycopy(src, 0, dst, 0, 1);
        int[] unused = new int[1];
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := profile.Run(prog, "kinds", vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	byLine := map[int32]*profile.Record{}
	for _, r := range p.Records {
		if site := p.Sites[r.Site]; site.Method == prog.Main {
			byLine[site.Line] = r
		}
	}
	for _, c := range []struct {
		name       string
		alloc, use int32
		kind       vm.UseKind
		uses       int64
	}{
		{"putfield", 10, 11, vm.UsePutField, 2},
		{"getfield", 12, 13, vm.UseGetField, 2},
		{"invoke", 14, 15, vm.UseInvoke, 2},
		{"monitor", 16, 17, vm.UseMonitor, 2}, // enter and exit
		{"array store", 18, 19, vm.UseArray, 1},
		{"array load", 20, 21, vm.UseArray, 1},
		{"array length", 22, 23, vm.UseArray, 1},
		{"native source", 24, 26, vm.UseNative, 1},
		{"native destination", 25, 26, vm.UseNative, 1},
	} {
		r := byLine[c.alloc]
		if r == nil {
			t.Errorf("%s: no record allocated at line %d", c.name, c.alloc)
			continue
		}
		last := p.ChainNodes[r.LastUseChain]
		if r.LastUseKind != c.kind || r.Uses != c.uses || last.Method != prog.Main || last.Line != c.use {
			t.Errorf("%s: last use %v at %s, %d uses; want %v at Main.main:%d, %d uses",
				c.name, r.LastUseKind, p.ChainDesc(r.LastUseChain, 0), r.Uses, c.kind, c.use, c.uses)
		}
	}
	if r := byLine[27]; r == nil || r.Used() || r.Uses != 0 || r.LastUseChain != -1 {
		t.Errorf("never-used array: record %+v, want no use", r)
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
