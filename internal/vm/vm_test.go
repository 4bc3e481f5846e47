package vm_test

import (
	"errors"
	"strings"
	"testing"

	"dragprof/internal/heap"
	"dragprof/internal/mj"
	"dragprof/internal/vm"
)

// run compiles src (with the stdlib) and executes it, returning the
// program's output.
func run(t *testing.T, src string) string {
	t.Helper()
	prog, _, err := mj.CompileWithStdlib([]string{"test.mj"}, map[string]string{"test.mj": src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v\noutput so far:\n%s", err, m.Output())
	}
	return m.Output()
}

// runErr compiles and runs src, expecting a runtime error containing want.
func runErr(t *testing.T, src, want string) {
	t.Helper()
	prog, _, err := mj.CompileWithStdlib([]string{"test.mj"}, map[string]string{"test.mj": src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	err = m.Run()
	if err == nil {
		t.Fatalf("expected error containing %q, got success; output:\n%s", want, m.Output())
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("expected error containing %q, got %v", want, err)
	}
}

func TestHelloWorld(t *testing.T) {
	out := run(t, `
class Main {
    static void main() {
        println("hello, world");
    }
}`)
	if out != "hello, world\n" {
		t.Errorf("output = %q, want %q", out, "hello, world\n")
	}
}

func TestArithmeticAndLoops(t *testing.T) {
	out := run(t, `
class Main {
    static void main() {
        int sum = 0;
        for (int i = 1; i <= 10; i = i + 1) {
            sum = sum + i;
        }
        printInt(sum);
        printInt(17 / 5);
        printInt(17 % 5);
        printInt(-sum);
    }
}`)
	want := "55\n3\n2\n-55\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestVirtualDispatch(t *testing.T) {
	out := run(t, `
class Shape {
    int area() { return 0; }
    String name() { return "shape"; }
}
class Square extends Shape {
    int side;
    Square(int s) { side = s; }
    int area() { return side * side; }
    String name() { return "square"; }
}
class Rect extends Square {
    int h;
    Rect(int w, int hh) { side = w; h = hh; }
    int area() { return side * h; }
}
class Main {
    static void main() {
        Shape[] shapes = new Shape[3];
        shapes[0] = new Shape();
        shapes[1] = new Square(4);
        shapes[2] = new Rect(3, 5);
        int total = 0;
        for (int i = 0; i < shapes.length; i = i + 1) {
            total = total + shapes[i].area();
        }
        printInt(total);
        println(shapes[1].name());
        println(shapes[2].name());
    }
}`)
	want := "31\nsquare\nsquare\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestFieldsAndStatics(t *testing.T) {
	out := run(t, `
class Counter {
    static int total = 100;
    int n;
    void bump() { n = n + 1; Counter.total = Counter.total + 1; }
}
class Main {
    static void main() {
        Counter a = new Counter();
        Counter b = new Counter();
        a.bump(); a.bump(); b.bump();
        printInt(a.n);
        printInt(b.n);
        printInt(Counter.total);
    }
}`)
	want := "2\n1\n103\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestExceptionsTryCatch(t *testing.T) {
	out := run(t, `
class Main {
    static int divide(int a, int b) {
        return a / b;
    }
    static void main() {
        try {
            printInt(divide(10, 0));
        } catch (ArithmeticException e) {
            println("caught arithmetic");
        }
        try {
            int[] a = new int[3];
            a[5] = 1;
        } catch (IndexOutOfBoundsException e) {
            println("caught bounds");
        }
        try {
            String s = null;
            printInt(s.length());
        } catch (NullPointerException e) {
            println("caught npe");
        }
        try {
            throw new RuntimeException("custom");
        } catch (RuntimeException e) {
            println(e.getMessage());
        }
        println("done");
    }
}`)
	want := "caught arithmetic\ncaught bounds\ncaught npe\ncustom\ndone\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestUncaughtException(t *testing.T) {
	runErr(t, `
class Main {
    static void main() {
        throw new RuntimeException("boom");
    }
}`, "boom")
}

func TestCatchSubclassing(t *testing.T) {
	out := run(t, `
class Main {
    static void main() {
        try {
            throw new NullPointerException("sub");
        } catch (RuntimeException e) {
            println("caught as super");
        }
        try {
            throw new Error("err");
        } catch (Throwable e) {
            println(e.getMessage());
        }
    }
}`)
	want := "caught as super\nerr\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestStringsAndBuiltins(t *testing.T) {
	out := run(t, `
class Main {
    static void main() {
        String a = "abc";
        String b = "abc";
        String c = "abd";
        if (a.equals(b)) { println("eq"); }
        if (!a.equals(c)) { println("ne"); }
        printInt(a.length());
        printInt(a.charAt(1));
        if (hash(a) == hash(b)) { println("same hash"); }
    }
}`)
	want := "eq\nne\n3\n98\nsame hash\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestGCReclaimsGarbage(t *testing.T) {
	// Allocate far more than the heap capacity in dead objects; the VM
	// must collect and finish.
	out := run(t, `
class Node {
    int[] payload;
    Node() { payload = new int[1000]; }
}
class Main {
    static void main() {
        for (int i = 0; i < 100000; i = i + 1) {
            Node n = new Node();
            n.payload[0] = i;
        }
        println("survived");
    }
}`)
	if out != "survived\n" {
		t.Errorf("output = %q", out)
	}
}

func TestOutOfMemoryCaught(t *testing.T) {
	out := run(t, `
class Main {
    static void main() {
        int[][] keep = new int[1000000][];
        try {
            for (int i = 0; i < 1000000; i = i + 1) {
                keep[i] = new int[10000];
            }
            println("no oom");
        } catch (OutOfMemoryError e) {
            println("caught oom");
        }
    }
}`)
	if out != "caught oom\n" {
		t.Errorf("output = %q, want caught oom", out)
	}
}

func TestSynchronizedBlocks(t *testing.T) {
	out := run(t, `
class Main {
    static void main() {
        Object lock = new Object();
        int x = 0;
        synchronized (lock) {
            x = x + 1;
            synchronized (lock) {
                x = x + 1;
            }
        }
        printInt(x);
        try {
            synchronized (lock) {
                throw new RuntimeException("inside");
            }
        } catch (RuntimeException e) {
            println("monitor released");
        }
    }
}`)
	want := "2\nmonitor released\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestFinalizers(t *testing.T) {
	// spawn() confines the reference to a frame that is gone by gc()
	// time; a loop-local would stay reachable through its stale frame
	// slot — the very dead-reference effect the paper profiles.
	out := run(t, `
class Watched {
    static int finalized = 0;
    void finalize() { Watched.finalized = Watched.finalized + 1; }
}
class Main {
    static void spawn() {
        Watched w = new Watched();
    }
    static void main() {
        for (int i = 0; i < 10; i = i + 1) {
            spawn();
        }
        gc();
        gc();
        printInt(Watched.finalized);
    }
}`)
	if out != "10\n" {
		t.Errorf("output = %q, want 10 finalizations", out)
	}
}

func TestRandomDeterministic(t *testing.T) {
	src := `
class Main {
    static void main() {
        seedRandom(42);
        int sum = 0;
        for (int i = 0; i < 100; i = i + 1) {
            sum = sum + random(1000);
        }
        printInt(sum);
    }
}`
	a := run(t, src)
	b := run(t, src)
	if a != b {
		t.Errorf("nondeterministic random: %q vs %q", a, b)
	}
}

func TestArrayCopy(t *testing.T) {
	out := run(t, `
class Main {
    static void main() {
        int[] src = new int[5];
        for (int i = 0; i < 5; i = i + 1) { src[i] = i * 10; }
        int[] dst = new int[5];
        arraycopy(src, 1, dst, 0, 3);
        printInt(dst[0]);
        printInt(dst[2]);
        try {
            arraycopy(src, 3, dst, 0, 4);
        } catch (IndexOutOfBoundsException e) {
            println("bounds checked");
        }
    }
}`)
	want := "10\n30\nbounds checked\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestBreakContinue(t *testing.T) {
	out := run(t, `
class Main {
    static void main() {
        int sum = 0;
        for (int i = 0; i < 100; i = i + 1) {
            if (i % 2 == 0) { continue; }
            if (i > 10) { break; }
            sum = sum + i;
        }
        printInt(sum);
        int n = 0;
        while (true) {
            n = n + 1;
            if (n == 7) { break; }
        }
        printInt(n);
    }
}`)
	want := "25\n7\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestWhileAndRecursion(t *testing.T) {
	out := run(t, `
class Main {
    static int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    static void main() {
        printInt(fib(20));
    }
}`)
	if out != "6765\n" {
		t.Errorf("output = %q, want 6765", out)
	}
}

func TestCollectorVariants(t *testing.T) {
	src := `
class Cell {
    Cell next;
    int[] pad;
    Cell(Cell n) { next = n; pad = new int[100]; }
}
class Main {
    static void main() {
        Cell head = null;
        int checksum = 0;
        for (int round = 0; round < 50; round = round + 1) {
            head = null;
            for (int i = 0; i < 500; i = i + 1) {
                head = new Cell(head);
                head.pad[0] = i;
            }
            Cell c = head;
            while (c != null) {
                checksum = checksum + c.pad[0];
                c = c.next;
            }
        }
        printInt(checksum);
    }
}`
	var outputs []string
	for _, kind := range []vm.CollectorKind{vm.MarkSweep, vm.MarkCompact, vm.Generational} {
		prog, _, err := mj.CompileWithStdlib([]string{"test.mj"}, map[string]string{"test.mj": src})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		m, err := vm.New(prog, vm.Config{Collector: kind, HeapCapacity: 8 << 20, NurserySize: 512 << 10})
		if err != nil {
			t.Fatalf("vm.New(%s): %v", kind, err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("run with %s: %v", kind, err)
		}
		outputs = append(outputs, m.Output())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Errorf("collector output diverges: %q vs %q", outputs[0], outputs[i])
		}
	}
}

func TestStepBudget(t *testing.T) {
	prog, _, err := mj.CompileWithStdlib([]string{"test.mj"}, map[string]string{"test.mj": `
class Main {
    static void main() {
        while (true) { }
    }
}`})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := vm.New(prog, vm.Config{MaxSteps: 10000})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	if err := m.Run(); !errors.Is(err, vm.ErrStepBudget) {
		t.Fatalf("Run() = %v, want ErrStepBudget", err)
	}
	// The instruction that would exceed the budget is counted, not run.
	if got := m.CostReport().Instructions; got != 10001 {
		t.Errorf("instructions at the halt = %d, want 10001", got)
	}
}

func TestCostReportMonotone(t *testing.T) {
	prog, _, err := mj.CompileWithStdlib([]string{"test.mj"}, map[string]string{"test.mj": `
class Main {
    static void main() {
        int[] a = new int[100];
        for (int i = 0; i < 100; i = i + 1) { a[i] = i; }
    }
}`})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	c := m.CostReport()
	if c.Instructions == 0 || c.Allocations == 0 || c.AllocBytes == 0 {
		t.Errorf("cost report has zero fields: %+v", c)
	}
	if c.RuntimeUnits() <= c.Instructions {
		t.Errorf("runtime units %d should exceed instruction count %d", c.RuntimeUnits(), c.Instructions)
	}
}

func TestStaticInitializers(t *testing.T) {
	out := run(t, `
class Config {
    static int limit = 10 * 5;
    static String name = "cfg";
}
class Main {
    static void main() {
        printInt(Config.limit);
        println(Config.name);
    }
}`)
	want := "50\ncfg\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestReusedFrameDropsStaleLocals(t *testing.T) {
	// a() and b() run in the same frame slot one after the other. b's
	// local is unassigned when it collects, so the array a() left in the
	// same local slot must not be a root there.
	prog, _, err := mj.CompileWithStdlib([]string{"test.mj"}, map[string]string{"test.mj": `
class Main {
    static void a() {
        int[] big = new int[1000];
        big[0] = 1;
    }
    static void b() {
        gc();
        int[] small = new int[10];
        small[0] = 2;
    }
    static void main() {
        a();
        b();
    }
}`})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	freed := false
	m.Heap().SetFreeListener(func(_ heap.Handle, o *heap.Object) {
		if o.Kind == heap.KindArray && o.Len() == 1000 {
			freed = true
		}
	})
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !freed {
		t.Error("a()'s array survived gc() in b(): a reused frame kept a stale local as a root")
	}
}
