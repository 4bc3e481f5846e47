package vm

import (
	"context"
	"fmt"
	"time"
)

// Budgets bound a run's resource consumption; zero fields are unlimited.
// When a budget is exhausted the VM halts with a *BudgetError instead of
// running on — and because halting is an ordinary (if early) exit, the
// profiler still flushes trailers for every live object, generalizing the
// paper's program-exit flush to any exit.
type Budgets struct {
	// AllocBytes bounds the total bytes allocated (the profiler's clock).
	// Deterministic: a run aborts at the same allocation every time.
	AllocBytes int64
	// HeapLiveBytes bounds the live heap: when the heap exceeds it at a
	// safepoint, a full collection runs first, and only a still-over
	// budget heap aborts. Deterministic for a fixed program.
	HeapLiveBytes int64
	// WallClock bounds elapsed real time, polled every budgetPollSteps
	// instructions. Inherently nondeterministic; meant for runaway runs.
	WallClock time.Duration
	// Context, when non-nil, aborts the run on cancellation (polled with
	// the wall clock).
	Context context.Context
}

func (b Budgets) active() bool {
	return b.AllocBytes > 0 || b.HeapLiveBytes > 0 || b.WallClock > 0 || b.Context != nil
}

// budgetPollSteps is the wall-clock/context polling cadence in executed
// instructions: frequent enough to abort promptly, cheap enough to vanish
// in the interpreter loop.
const budgetPollSteps = 1024

// BudgetKind names the exhausted resource.
type BudgetKind string

// Budget kinds.
const (
	// BudgetAllocBytes: the allocation-byte budget ran out.
	BudgetAllocBytes BudgetKind = "alloc-bytes"
	// BudgetHeapLive: the live heap stayed over budget after a full
	// collection.
	BudgetHeapLive BudgetKind = "heap-live-bytes"
	// BudgetWallClock: the wall-clock budget ran out.
	BudgetWallClock BudgetKind = "wall-clock"
	// BudgetCanceled: the run's context was canceled.
	BudgetCanceled BudgetKind = "canceled"
)

// BudgetError reports a resource-budget abort. The run is not a failure:
// the VM halts at a safepoint with every live reference rooted, so
// profiling listeners see a consistent final heap.
type BudgetError struct {
	// Kind names the exhausted resource.
	Kind BudgetKind
	// Limit and Used quantify the budget (bytes for alloc/heap,
	// nanoseconds for wall-clock; zero for cancellation).
	Limit, Used int64
	// Cause carries the context error for BudgetCanceled.
	Cause error
}

func (e *BudgetError) Error() string {
	switch e.Kind {
	case BudgetWallClock:
		return fmt.Sprintf("vm: wall-clock budget exhausted: ran %v of %v",
			time.Duration(e.Used), time.Duration(e.Limit))
	case BudgetCanceled:
		return fmt.Sprintf("vm: run canceled: %v", e.Cause)
	default:
		return fmt.Sprintf("vm: %s budget exhausted: used %d of %d bytes", e.Kind, e.Used, e.Limit)
	}
}

func (e *BudgetError) Unwrap() error { return e.Cause }

// checkBudgets enforces the run budgets at a safepoint; it halts the VM
// with a *BudgetError when one is exhausted.
func (vm *VM) checkBudgets() {
	b := &vm.budgets
	if b.AllocBytes > 0 && vm.cost.AllocBytes > b.AllocBytes {
		vm.halt(&BudgetError{Kind: BudgetAllocBytes, Limit: b.AllocBytes, Used: vm.cost.AllocBytes})
		return
	}
	if b.HeapLiveBytes > 0 && vm.hp.Used() > b.HeapLiveBytes {
		// The raw heap includes garbage; only a post-collection heap
		// proves the budget is really exceeded.
		vm.DeepGC()
		if vm.hp.Used() > b.HeapLiveBytes {
			vm.halt(&BudgetError{Kind: BudgetHeapLive, Limit: b.HeapLiveBytes, Used: vm.hp.Used()})
			return
		}
	}
	if vm.cost.Instructions%budgetPollSteps != 0 {
		return
	}
	if b.Context != nil {
		if err := b.Context.Err(); err != nil {
			vm.halt(&BudgetError{Kind: BudgetCanceled, Cause: err})
			return
		}
	}
	if b.WallClock > 0 {
		if elapsed := time.Since(vm.started); elapsed > b.WallClock {
			vm.halt(&BudgetError{Kind: BudgetWallClock, Limit: int64(b.WallClock), Used: int64(elapsed)})
		}
	}
}
