// Package gc provides the reachability-based collectors for the dragprof
// managed heap: a mark-sweep collector, an optional sliding compaction pass,
// and a two-generation collector with a remembered set, matching the
// collectors the paper's experiments touch (the classic JVM's full
// collector for profiling, HotSpot's generational collector for the
// runtime-savings measurements).
//
// The package also implements the paper's "deep GC" (Section 2.1.1): a
// collection, followed by running every pending finalizer, followed by a
// second collection, which guarantees prompt reclamation of everything
// unreachable and removes finalization nondeterminism. When no finalizer
// is pending the second collection could free nothing, so it is charged
// rather than run.
package gc

import (
	"dragprof/internal/heap"
)

// Roots enumerates the mutator's root references: thread-stack locals,
// operand stacks, static fields and VM-internal registers.
type Roots interface {
	// VisitRoots calls visit once per root handle. Null handles may be
	// passed; collectors ignore them.
	VisitRoots(visit func(heap.Handle))
}

// Stats accumulates collector work counts. The VM folds them into its cost
// model so Table 4's runtime comparison is deterministic.
type Stats struct {
	// Collections counts collection cycles (minor and major alike).
	Collections int64
	// MajorCollections counts full-heap cycles.
	MajorCollections int64
	// Marked counts objects marked live.
	Marked int64
	// Freed counts objects reclaimed.
	Freed int64
	// FreedBytes counts bytes reclaimed.
	FreedBytes int64
	// Promoted counts objects copied into the old generation.
	Promoted int64
	// Enqueued counts finalizers enqueued.
	Enqueued int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Collections += other.Collections
	s.MajorCollections += other.MajorCollections
	s.Marked += other.Marked
	s.Freed += other.Freed
	s.FreedBytes += other.FreedBytes
	s.Promoted += other.Promoted
	s.Enqueued += other.Enqueued
}

// Work returns the collector work in abstract cost units: 2 per mark, 1 per
// free, 3 per promotion (copying is costlier than marking).
func (s *Stats) Work() int64 {
	return 2*s.Marked + s.Freed + 3*s.Promoted
}

// Collector is a garbage collector over a heap.
type Collector interface {
	// Name identifies the collector in reports.
	Name() string
	// Collect runs one cycle. full forces a full-heap (major) cycle.
	// It returns the cycle's stats; cumulative stats are available via
	// TotalStats.
	Collect(full bool) Stats
	// TotalStats returns work accumulated over all cycles.
	TotalStats() Stats
	// DrainFinalizers returns and clears the pending-finalization queue.
	// The VM runs finalize() on each handle; the objects stay live until
	// a subsequent cycle observes them unreachable again.
	DrainFinalizers() []heap.Handle
	// NoteAlloc informs the collector of a new allocation (generational
	// bookkeeping). Collectors that do not care ignore it.
	NoteAlloc(h heap.Handle, o *heap.Object)
	// ChargeIdle accounts, without running it, for a full cycle right
	// after a full cycle that enqueued no finalizer and marked marked
	// objects, with no mutator step between them. Such a cycle marks the
	// same objects and frees, promotes and enqueues nothing, so its stats
	// are one major collection and marked marks. It returns those stats.
	ChargeIdle(marked int64) Stats
}

// idleStats is the stats of a full cycle that marks marked objects and
// changes nothing.
func idleStats(marked int64) Stats {
	return Stats{Collections: 1, MajorCollections: 1, Marked: marked}
}

// Barrier is implemented by collectors needing a write barrier on reference
// stores into heap objects.
type Barrier interface {
	// WriteBarrier records that object dst may now reference val.
	WriteBarrier(dst heap.Handle, val heap.Handle)
}

// FreeObserver is implemented by collectors that want to hear about
// mutator-initiated frees — the VM's frame-region reclamation of
// escape-proved allocations. The object has already left the heap when
// NoteFree runs; the observer only adjusts its own accounting (e.g. the
// generational nursery budget).
type FreeObserver interface {
	NoteFree(h heap.Handle, o *heap.Object)
}

// markFrom traces the heap from the given worklist, marking every reachable
// object, and returns the number marked. Objects already marked are skipped.
func markFrom(hp *heap.Heap, work []heap.Handle) int64 {
	var marked int64
	for len(work) > 0 {
		h := work[len(work)-1]
		work = work[:len(work)-1]
		if h.IsNull() {
			continue
		}
		o := hp.Lookup(h)
		if o == nil || o.Mark {
			continue
		}
		o.Mark = true
		marked++
		if !o.HoldsRefs() {
			continue
		}
		for _, v := range o.Slots {
			if v.IsRef && !v.H.IsNull() {
				work = append(work, v.H)
			}
		}
	}
	return marked
}

// MarkSweep is a full-heap mark-sweep collector, optionally followed by a
// sliding compaction of the virtual address map (the handle indirection is
// what made relocation cheap in the classic JVM).
type MarkSweep struct {
	Heap *heap.Heap
	Root Roots
	// Compact enables the sliding compaction pass after each sweep.
	Compact bool

	total     Stats
	finalizeQ []heap.Handle
}

// NewMarkSweep returns a mark-sweep collector over hp with the given roots.
func NewMarkSweep(hp *heap.Heap, roots Roots) *MarkSweep {
	return &MarkSweep{Heap: hp, Root: roots}
}

// Name implements Collector.
func (c *MarkSweep) Name() string {
	if c.Compact {
		return "mark-compact"
	}
	return "mark-sweep"
}

// NoteAlloc implements Collector; mark-sweep needs no allocation hook.
func (c *MarkSweep) NoteAlloc(heap.Handle, *heap.Object) {}

// TotalStats implements Collector.
func (c *MarkSweep) TotalStats() Stats { return c.total }

// DrainFinalizers implements Collector.
func (c *MarkSweep) DrainFinalizers() []heap.Handle {
	q := c.finalizeQ
	c.finalizeQ = nil
	return q
}

// ChargeIdle implements Collector.
func (c *MarkSweep) ChargeIdle(marked int64) Stats {
	st := idleStats(marked)
	c.total.Add(st)
	return st
}

// Collect implements Collector. Every cycle is a full cycle.
func (c *MarkSweep) Collect(bool) Stats {
	var st Stats
	st.Collections = 1
	st.MajorCollections = 1

	c.Heap.ForEach(func(_ heap.Handle, o *heap.Object) bool {
		o.Mark = false
		return true
	})

	var roots []heap.Handle
	c.Root.VisitRoots(func(h heap.Handle) { roots = append(roots, h) })
	st.Marked = markFrom(c.Heap, roots)

	// Resurrect unreachable finalizable objects: enqueue their
	// finalizers and keep them (and everything they reach) alive until
	// the finalizer has run.
	var resurrect []heap.Handle
	c.Heap.ForEach(func(h heap.Handle, o *heap.Object) bool {
		if !o.Mark && o.Finalizable {
			o.Finalizable = false
			c.finalizeQ = append(c.finalizeQ, h)
			resurrect = append(resurrect, h)
			st.Enqueued++
		}
		return true
	})
	st.Marked += markFrom(c.Heap, resurrect)

	var dead []heap.Handle
	c.Heap.ForEach(func(h heap.Handle, o *heap.Object) bool {
		if !o.Mark {
			dead = append(dead, h)
			st.FreedBytes += o.Size
		}
		return true
	})
	for _, h := range dead {
		c.Heap.Free(h)
	}
	st.Freed = int64(len(dead))

	if c.Compact {
		c.Heap.Compact()
	}
	c.total.Add(st)
	return st
}

// DeepGC performs the paper's deep collection: collect, run all pending
// finalizers through runFinalizers, then collect again so objects freshly
// unreachable after finalization are reclaimed immediately. When the first
// cycle leaves no finalizer to run, nothing can have become unreachable
// since, and the second cycle is charged through ChargeIdle instead of run.
// runFinalizers may be nil when the program declares no finalizers.
func DeepGC(c Collector, runFinalizers func([]heap.Handle)) Stats {
	st := c.Collect(true)
	q := c.DrainFinalizers()
	if len(q) == 0 {
		st.Add(c.ChargeIdle(st.Marked))
		return st
	}
	if runFinalizers != nil {
		runFinalizers(q)
	}
	st.Add(c.Collect(true))
	return st
}
