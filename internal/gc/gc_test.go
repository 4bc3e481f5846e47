package gc_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dragprof/internal/bytecode"
	"dragprof/internal/gc"
	"dragprof/internal/heap"
)

// rootSet is a test mutator: an explicit list of root handles. visits
// counts the collections that traced from it.
type rootSet struct {
	roots  []heap.Handle
	visits int
}

func (r *rootSet) VisitRoots(visit func(heap.Handle)) {
	r.visits++
	for _, h := range r.roots {
		visit(h)
	}
}

// buildGraph allocates a random object graph and returns all handles plus
// the subset reachable from roots. It panics on allocation failure (the
// test heaps are amply sized).
func buildGraph(hp *heap.Heap, rng *rand.Rand, n int, roots *rootSet) (all []heap.Handle, reachable map[heap.Handle]bool) {
	for i := 0; i < n; i++ {
		h, err := hp.AllocObject(0, 3, []bool{true, true, false}, false)
		if err != nil {
			panic(err)
		}
		all = append(all, h)
		// Random edges to earlier objects.
		o := hp.Get(h)
		for s := 0; s < 2; s++ {
			if len(all) > 1 && rng.Intn(2) == 0 {
				o.Slots[s] = heap.RefValue(all[rng.Intn(len(all)-1)])
			}
		}
	}
	// A few random roots.
	for i := 0; i < n/4+1; i++ {
		roots.roots = append(roots.roots, all[rng.Intn(len(all))])
	}
	// Compute true reachability.
	reachable = make(map[heap.Handle]bool)
	var stack []heap.Handle
	stack = append(stack, roots.roots...)
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if h.IsNull() || reachable[h] {
			continue
		}
		reachable[h] = true
		for _, v := range hp.Get(h).Slots {
			if v.IsRef && !v.H.IsNull() {
				stack = append(stack, v.H)
			}
		}
	}
	return all, reachable
}

func TestMarkSweepExactness(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hp := heap.New(1 << 22)
		roots := &rootSet{}
		all, reachable := buildGraph(hp, rng, 200, roots)

		col := gc.NewMarkSweep(hp, roots)
		st := col.Collect(true)

		if int(st.Marked) != len(reachable) {
			t.Errorf("seed %d: marked %d, want %d", seed, st.Marked, len(reachable))
		}
		if int(st.Freed) != len(all)-len(reachable) {
			t.Errorf("seed %d: freed %d, want %d", seed, st.Freed, len(all)-len(reachable))
		}
		// Every reachable object survives; every unreachable one is gone.
		for _, h := range all {
			alive := hp.Lookup(h) != nil
			if alive != reachable[h] {
				t.Fatalf("seed %d: handle %d alive=%v reachable=%v", seed, h, alive, reachable[h])
			}
		}
		if hp.NumLive() != len(reachable) {
			t.Errorf("seed %d: live %d, want %d", seed, hp.NumLive(), len(reachable))
		}
	}
}

func TestGCNeverCollectsReachableProperty(t *testing.T) {
	// Property: after any collection, every object reachable from the
	// roots is still live (for all three collectors).
	f := func(seed int64, minor bool) bool {
		rng := rand.New(rand.NewSource(seed))
		hp := heap.New(1 << 22)
		roots := &rootSet{}
		_, reachable := buildGraph(hp, rng, 150, roots)

		collectors := []gc.Collector{
			gc.NewMarkSweep(hp, roots),
			gc.NewGenerational(hp, roots, 1<<16),
		}
		col := collectors[int(uint64(seed)%2)]
		col.Collect(!minor)
		for h := range reachable {
			if hp.Lookup(h) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCompactingCollector(t *testing.T) {
	hp := heap.New(1 << 20)
	roots := &rootSet{}
	var keep []heap.Handle
	for i := 0; i < 50; i++ {
		h, _ := hp.AllocObject(0, 2, []bool{true, false}, false)
		if i%3 == 0 {
			roots.roots = append(roots.roots, h)
			keep = append(keep, h)
		}
	}
	col := gc.NewMarkSweep(hp, roots)
	col.Compact = true
	col.Collect(true)

	var total, maxEnd int64
	hp.ForEach(func(_ heap.Handle, o *heap.Object) bool {
		total += o.Size
		if end := o.Addr + o.Size; end > maxEnd {
			maxEnd = end
		}
		return true
	})
	if total != maxEnd {
		t.Errorf("not compacted: live %d bytes, address extent %d", total, maxEnd)
	}
	for _, h := range keep {
		if hp.Lookup(h) == nil {
			t.Fatal("live object lost by compacting collector")
		}
	}
}

func TestGenerationalPromotionAndBarrier(t *testing.T) {
	hp := heap.New(1 << 22)
	roots := &rootSet{}
	col := gc.NewGenerational(hp, roots, 1<<12)

	// An old object: allocate, root it, minor-collect to promote.
	oldH, _ := hp.AllocObject(0, 1, []bool{true}, false)
	col.NoteAlloc(oldH, hp.Get(oldH))
	roots.roots = append(roots.roots, oldH)
	col.Collect(false)
	if !hp.Get(oldH).InOld {
		t.Fatal("rooted object not promoted by minor collection")
	}

	// A young object referenced ONLY from the old object; without the
	// write barrier a minor collection would free it.
	youngH, _ := hp.AllocObject(0, 1, []bool{true}, false)
	col.NoteAlloc(youngH, hp.Get(youngH))
	hp.Get(oldH).Slots[0] = heap.RefValue(youngH)
	col.WriteBarrier(oldH, youngH)

	col.Collect(false)
	if hp.Lookup(youngH) == nil {
		t.Fatal("write barrier failed: old->young edge missed by minor collection")
	}
	if !hp.Get(youngH).InOld {
		t.Error("surviving young object not promoted")
	}
}

func TestGenerationalMinorIgnoresOldGarbage(t *testing.T) {
	hp := heap.New(1 << 22)
	roots := &rootSet{}
	col := gc.NewGenerational(hp, roots, 1<<12)

	// Promote an object, then drop the root: it is old garbage.
	h, _ := hp.AllocObject(0, 0, nil, false)
	col.NoteAlloc(h, hp.Get(h))
	roots.roots = []heap.Handle{h}
	col.Collect(false)
	roots.roots = nil

	col.Collect(false) // minor: must not touch the old generation
	if hp.Lookup(h) == nil {
		t.Fatal("minor collection freed an old object")
	}
	col.Collect(true) // major: reclaims it
	if hp.Lookup(h) != nil {
		t.Fatal("major collection missed old garbage")
	}
}

func TestFinalizationResurrection(t *testing.T) {
	hp := heap.New(1 << 20)
	roots := &rootSet{}
	col := gc.NewMarkSweep(hp, roots)

	// A finalizable object referencing a plain one: both must survive
	// the first collection (resurrection), and the finalizer must be
	// enqueued exactly once.
	inner, _ := hp.AllocObject(0, 0, nil, false)
	outer, _ := hp.AllocObject(0, 1, []bool{true}, true)
	hp.Get(outer).Slots[0] = heap.RefValue(inner)

	st := col.Collect(true)
	if st.Enqueued != 1 {
		t.Fatalf("enqueued = %d, want 1", st.Enqueued)
	}
	if hp.Lookup(outer) == nil || hp.Lookup(inner) == nil {
		t.Fatal("finalizable object or its referent collected before finalization")
	}
	q := col.DrainFinalizers()
	if len(q) != 1 || q[0] != outer {
		t.Fatalf("queue = %v", q)
	}

	// After the finalizer "ran" (we just drop the queue), the next
	// collection reclaims both; the finalizer must not re-enqueue.
	st = col.Collect(true)
	if st.Enqueued != 0 {
		t.Errorf("finalizer re-enqueued: %d", st.Enqueued)
	}
	if hp.Lookup(outer) != nil || hp.Lookup(inner) != nil {
		t.Error("objects survived after finalization")
	}
}

func TestDeepGC(t *testing.T) {
	hp := heap.New(1 << 20)
	roots := &rootSet{}
	col := gc.NewMarkSweep(hp, roots)

	h, _ := hp.AllocObject(0, 0, nil, true)
	ran := false
	st := gc.DeepGC(col, func(q []heap.Handle) {
		if len(q) == 1 && q[0] == h {
			ran = true
		}
	})
	if !ran {
		t.Fatal("finalizer callback not invoked")
	}
	if hp.Lookup(h) != nil {
		t.Fatal("deep GC did not reclaim the finalized object")
	}
	if st.Collections != 2 {
		t.Errorf("deep GC ran %d cycles, want 2", st.Collections)
	}
}

// idleTwin builds one of several identical heaps for
// TestDeepGCChargesIdleCycle: a random object graph, rooted primitive
// arrays (one materialized), a rooted finalizable object, a rooted
// reference array holding the only reference to held and, for the
// generational collector, an old generation under a fresh nursery. No
// unreachable object is finalizable, so a full cycle enqueues nothing.
func idleTwin(kind string, seed int64) (hp *heap.Heap, roots *rootSet, col gc.Collector, held heap.Handle) {
	hp = heap.New(1 << 22)
	roots = &rootSet{}
	switch kind {
	case "generational":
		col = gc.NewGenerational(hp, roots, 1<<12)
	default:
		ms := gc.NewMarkSweep(hp, roots)
		ms.Compact = kind == "mark-compact"
		col = ms
	}
	alloc := func(h heap.Handle, err error) heap.Handle {
		if err != nil {
			panic(err)
		}
		col.NoteAlloc(h, hp.Get(h))
		return h
	}
	rng := rand.New(rand.NewSource(seed))
	all, _ := buildGraph(hp, rng, 120, roots)
	for _, h := range all {
		col.NoteAlloc(h, hp.Get(h))
	}
	col.Collect(false) // promotes the generational survivors
	buildGraph(hp, rng, 80, roots)
	ints := alloc(hp.AllocArray(bytecode.ElemInt, 64))
	hp.Get(ints).Set(3, heap.IntValue(7))
	chars := alloc(hp.AllocArray(bytecode.ElemChar, 16))
	fin := alloc(hp.AllocObject(0, 1, []bool{true}, true))
	hp.Get(fin).Slots[0] = heap.RefValue(chars)
	held = alloc(hp.AllocObject(0, 0, nil, false))
	refs := alloc(hp.AllocArray(bytecode.ElemRef, 4))
	hp.Get(refs).Slots[2] = heap.RefValue(held)
	roots.roots = append(roots.roots, ints, fin, refs)
	alloc(hp.AllocArray(bytecode.ElemInt, 8)) // garbage
	roots.visits = 0
	return hp, roots, col, held
}

// heapState renders every live object's handle, address and collector
// bookkeeping, in handle order.
func heapState(hp *heap.Heap) string {
	var b strings.Builder
	hp.ForEach(func(h heap.Handle, o *heap.Object) bool {
		fmt.Fprintf(&b, "%d@%d:%v/%d/%v/%v ", h, o.Addr, o.Mark, o.Age, o.InOld, o.Finalizable)
		return true
	})
	return b.String()
}

func TestDeepGCChargesIdleCycle(t *testing.T) {
	// On twin heaps, a full cycle right after one that enqueued no
	// finalizer must have exactly the stats ChargeIdle charges, and leave
	// the heap as it found it; gc.DeepGC must then charge, not run, it.
	for _, kind := range []string{"mark-sweep", "mark-compact", "generational"} {
		for seed := int64(1); seed <= 5; seed++ {
			hpRun, _, run, held := idleTwin(kind, seed)
			hpIdle, _, idle, _ := idleTwin(kind, seed)
			hpDeep, rootsDeep, deep, _ := idleTwin(kind, seed)

			first := run.Collect(true)
			if q := run.DrainFinalizers(); len(q) != 0 || first.Freed == 0 {
				t.Fatalf("%s seed %d: first cycle enqueued %d and freed %d; the test needs 0 and some", kind, seed, len(q), first.Freed)
			}
			second := run.Collect(true)
			if hpRun.Lookup(held) == nil {
				t.Fatalf("%s seed %d: an object held only by a reference array was freed", kind, seed)
			}

			if got := idle.Collect(true); got != first {
				t.Fatalf("%s seed %d: twin heaps differ: first cycles %+v and %+v", kind, seed, first, got)
			}
			if q := idle.DrainFinalizers(); len(q) != 0 {
				t.Fatalf("%s seed %d: twin enqueued %d", kind, seed, len(q))
			}
			if charged := idle.ChargeIdle(first.Marked); charged != second {
				t.Errorf("%s seed %d: ChargeIdle = %+v, second Collect(true) = %+v", kind, seed, charged, second)
			}
			if idle.TotalStats() != run.TotalStats() {
				t.Errorf("%s seed %d: total stats %+v, want %+v", kind, seed, idle.TotalStats(), run.TotalStats())
			}
			if heapState(hpIdle) != heapState(hpRun) || hpIdle.Used() != hpRun.Used() {
				t.Errorf("%s seed %d: the second cycle changed the heap", kind, seed)
			}

			want := first
			want.Add(second)
			if st := gc.DeepGC(deep, nil); st != want {
				t.Errorf("%s seed %d: DeepGC = %+v, want %+v", kind, seed, st, want)
			}
			if deep.TotalStats() != run.TotalStats() || heapState(hpDeep) != heapState(hpRun) {
				t.Errorf("%s seed %d: DeepGC differs from two full cycles", kind, seed)
			}
			if rootsDeep.visits != 1 {
				t.Errorf("%s seed %d: DeepGC traced %d times, want 1", kind, seed, rootsDeep.visits)
			}
		}
	}
}

func TestStatsWork(t *testing.T) {
	var s gc.Stats
	s.Add(gc.Stats{Marked: 10, Freed: 4, Promoted: 2})
	s.Add(gc.Stats{Marked: 5})
	if s.Marked != 15 || s.Freed != 4 || s.Promoted != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.Work() != 2*15+4+3*2 {
		t.Errorf("work = %d", s.Work())
	}
}
