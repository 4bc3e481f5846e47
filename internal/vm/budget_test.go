package vm_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"dragprof/internal/mj"
	"dragprof/internal/vm"
)

// allocLoop allocates forever: every budget must be able to stop it.
const allocLoop = `
class Main {
    static void main() {
        int i = 0;
        while (i < 100000000) {
            int[] a = new int[1024];
            a[0] = i;
            i = i + 1;
        }
    }
}`

// leakLoop allocates and retains: the live heap grows without bound.
const leakLoop = `
class Node {
    int[] data;
    Node next;
}
class Main {
    static Node keep;
    static void main() {
        int i = 0;
        while (i < 100000000) {
            Node n = new Node();
            n.data = new int[4096];
            n.next = keep;
            keep = n;
            i = i + 1;
        }
    }
}`

func compileBudget(t *testing.T, src string) *vm.VM {
	t.Helper()
	return compileBudgetCfg(t, src, vm.Config{})
}

func compileBudgetCfg(t *testing.T, src string, cfg vm.Config) *vm.VM {
	t.Helper()
	prog, _, err := mj.CompileWithStdlib([]string{"test.mj"}, map[string]string{"test.mj": src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := vm.New(prog, cfg)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	return m
}

func wantBudgetError(t *testing.T, err error, kind vm.BudgetKind) *vm.BudgetError {
	t.Helper()
	if err == nil {
		t.Fatalf("expected %s BudgetError, run succeeded", kind)
	}
	var be *vm.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expected BudgetError, got %T: %v", err, err)
	}
	if be.Kind != kind {
		t.Fatalf("BudgetError kind = %s, want %s", be.Kind, kind)
	}
	return be
}

func TestAllocBytesBudget(t *testing.T) {
	m := compileBudgetCfg(t, allocLoop, vm.Config{
		Budgets: vm.Budgets{AllocBytes: 1 << 20},
	})
	be := wantBudgetError(t, m.Run(), vm.BudgetAllocBytes)
	if be.Used <= be.Limit {
		t.Errorf("Used %d should exceed Limit %d", be.Used, be.Limit)
	}
	// The abort is at the first safepoint past the budget: within one
	// allocation's worth of slack.
	if be.Used > be.Limit+(1<<14) {
		t.Errorf("abort overshot the budget: used %d of %d", be.Used, be.Limit)
	}
}

func TestAllocBudgetDeterministic(t *testing.T) {
	var used, instrs [2]int64
	for i := range used {
		m := compileBudgetCfg(t, allocLoop, vm.Config{
			Budgets: vm.Budgets{AllocBytes: 1 << 20},
		})
		be := wantBudgetError(t, m.Run(), vm.BudgetAllocBytes)
		used[i] = be.Used
		instrs[i] = m.CostReport().Instructions
	}
	if used[0] != used[1] {
		t.Errorf("alloc budget abort nondeterministic: %d vs %d", used[0], used[1])
	}
	// The abort lands on the safepoint right after the allocation that
	// crossed the budget, at one exact instruction.
	if instrs[0] != instrs[1] || instrs[0] != 4088 {
		t.Errorf("instructions at the abort = %d and %d, want 4088", instrs[0], instrs[1])
	}
}

func TestHeapLiveBudget(t *testing.T) {
	m := compileBudgetCfg(t, leakLoop, vm.Config{
		Budgets: vm.Budgets{HeapLiveBytes: 2 << 20},
	})
	be := wantBudgetError(t, m.Run(), vm.BudgetHeapLive)
	if be.Used <= be.Limit {
		t.Errorf("Used %d should exceed Limit %d", be.Used, be.Limit)
	}
}

func TestHeapLiveBudgetSparesNonLeaks(t *testing.T) {
	// The alloc loop retains nothing: a live-heap budget far below the
	// total allocation volume must not fire.
	src := `
class Main {
    static void main() {
        int i = 0;
        while (i < 2000) {
            int[] a = new int[1024];
            a[0] = i;
            i = i + 1;
        }
        println("done");
    }
}`
	m := compileBudgetCfg(t, src, vm.Config{
		Budgets: vm.Budgets{HeapLiveBytes: 1 << 20},
	})
	if err := m.Run(); err != nil {
		t.Fatalf("non-leaking run aborted: %v", err)
	}
}

func TestWallClockBudget(t *testing.T) {
	m := compileBudgetCfg(t, allocLoop, vm.Config{
		Budgets: vm.Budgets{WallClock: 50 * time.Millisecond},
	})
	start := time.Now()
	wantBudgetError(t, m.Run(), vm.BudgetWallClock)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("wall-clock abort took %v", elapsed)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := compileBudgetCfg(t, allocLoop, vm.Config{
		Budgets: vm.Budgets{Context: ctx},
	})
	be := wantBudgetError(t, m.Run(), vm.BudgetCanceled)
	if !errors.Is(be, context.Canceled) {
		t.Errorf("BudgetError should unwrap to context.Canceled, got %v", be.Cause)
	}
	// A context canceled before the run halts it at the first
	// wall-clock/context poll, after exactly that many instructions.
	if got := m.CostReport().Instructions; got != 1024 {
		t.Errorf("instructions at the cancellation = %d, want 1024", got)
	}
}

func TestNoBudgetsNoOverhead(t *testing.T) {
	// Zero-valued budgets must leave the run untouched.
	m := compileBudget(t, `
class Main {
    static void main() { println("ok"); }
}`)
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if m.Output() != "ok\n" {
		t.Errorf("output = %q", m.Output())
	}
}
