package gc

import (
	"dragprof/internal/heap"
)

// Generational is a two-generation collector: new objects are allocated in
// a nursery; a minor cycle traces only the nursery (seeded by the mutator
// roots plus a remembered set of old objects that may reference young ones)
// and promotes every survivor to the old generation; a major cycle traces
// the whole heap. This models the HotSpot client collector used for the
// paper's Table 4 runtime measurements, where delayed reclamation of
// unreachable objects reduces the benefit of drag elimination.
type Generational struct {
	Heap *heap.Heap
	Root Roots
	// NurserySize is the nursery budget in bytes; when young allocation
	// exceeds it, the VM should request a minor cycle.
	NurserySize int64

	total       Stats
	finalizeQ   []heap.Handle
	nurseryUsed int64
	// remembered maps old objects that had a reference store since the
	// last cycle; their slots are minor-cycle roots.
	remembered map[heap.Handle]struct{}
}

// NewGenerational returns a generational collector with the given nursery
// budget.
func NewGenerational(hp *heap.Heap, roots Roots, nurserySize int64) *Generational {
	return &Generational{
		Heap:        hp,
		Root:        roots,
		NurserySize: nurserySize,
		remembered:  make(map[heap.Handle]struct{}),
	}
}

// Name implements Collector.
func (c *Generational) Name() string { return "generational" }

// TotalStats implements Collector.
func (c *Generational) TotalStats() Stats { return c.total }

// DrainFinalizers implements Collector.
func (c *Generational) DrainFinalizers() []heap.Handle {
	q := c.finalizeQ
	c.finalizeQ = nil
	return q
}

// NoteAlloc implements Collector: tracks nursery occupancy.
func (c *Generational) NoteAlloc(_ heap.Handle, o *heap.Object) {
	c.nurseryUsed += o.Size
}

// NurseryFull reports whether young allocation has exceeded the nursery
// budget since the last minor cycle.
func (c *Generational) NurseryFull() bool { return c.nurseryUsed >= c.NurserySize }

// NoteFree implements FreeObserver: a region-freed young object no longer
// occupies the nursery, so it stops counting toward the minor-cycle
// trigger. (Young objects freed by the collector itself are accounted for
// by the cycle's nurseryUsed reset instead.)
func (c *Generational) NoteFree(_ heap.Handle, o *heap.Object) {
	if o.InOld {
		return
	}
	c.nurseryUsed -= o.Size
	if c.nurseryUsed < 0 {
		c.nurseryUsed = 0
	}
}

// WriteBarrier implements Barrier: stores of young references into old
// objects add the old object to the remembered set.
func (c *Generational) WriteBarrier(dst heap.Handle, val heap.Handle) {
	if dst.IsNull() || val.IsNull() {
		return
	}
	do := c.Heap.Lookup(dst)
	vo := c.Heap.Lookup(val)
	if do == nil || vo == nil {
		return
	}
	if do.InOld && !vo.InOld {
		c.remembered[dst] = struct{}{}
	}
}

// Collect implements Collector: a minor cycle unless full is true.
func (c *Generational) Collect(full bool) Stats {
	var st Stats
	if full {
		st = c.major()
	} else {
		st = c.minor()
	}
	c.total.Add(st)
	return st
}

// ChargeIdle implements Collector. After a major cycle the nursery is
// empty and the remembered set clear, so an idle major cycle changes
// neither.
func (c *Generational) ChargeIdle(marked int64) Stats {
	st := idleStats(marked)
	c.total.Add(st)
	return st
}

func (c *Generational) minor() Stats {
	var st Stats
	st.Collections = 1

	// Unmark young objects only; old objects are implicitly live in a
	// minor cycle, so marking stops at them naturally via markYoungFrom.
	c.Heap.ForEach(func(_ heap.Handle, o *heap.Object) bool {
		if !o.InOld {
			o.Mark = false
		}
		return true
	})

	var roots []heap.Handle
	c.Root.VisitRoots(func(h heap.Handle) { roots = append(roots, h) })
	for h := range c.remembered {
		if o := c.Heap.Lookup(h); o != nil {
			for _, v := range o.Slots {
				if v.IsRef && !v.H.IsNull() {
					roots = append(roots, v.H)
				}
			}
		}
	}
	st.Marked = c.markYoungFrom(roots)

	// Finalizable dead young objects get resurrected and promoted.
	var resurrect []heap.Handle
	c.Heap.ForEach(func(h heap.Handle, o *heap.Object) bool {
		if !o.InOld && !o.Mark && o.Finalizable {
			o.Finalizable = false
			c.finalizeQ = append(c.finalizeQ, h)
			resurrect = append(resurrect, h)
			st.Enqueued++
		}
		return true
	})
	st.Marked += c.markYoungFrom(resurrect)

	// Sweep dead young objects; promote survivors. After promotion no
	// young objects remain, so the remembered set can be rebuilt from
	// scratch by the write barrier.
	var dead []heap.Handle
	c.Heap.ForEach(func(h heap.Handle, o *heap.Object) bool {
		if o.InOld {
			return true
		}
		if o.Mark {
			o.InOld = true
			o.Age++
			st.Promoted++
		} else {
			dead = append(dead, h)
			st.FreedBytes += o.Size
		}
		return true
	})
	for _, h := range dead {
		c.Heap.Free(h)
	}
	st.Freed = int64(len(dead))
	c.nurseryUsed = 0
	clear(c.remembered)
	return st
}

// markYoungFrom marks reachable *young* objects; old objects terminate the
// trace (they are live by assumption in a minor cycle).
func (c *Generational) markYoungFrom(work []heap.Handle) int64 {
	var marked int64
	for len(work) > 0 {
		h := work[len(work)-1]
		work = work[:len(work)-1]
		if h.IsNull() {
			continue
		}
		o := c.Heap.Lookup(h)
		if o == nil || o.InOld || o.Mark {
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

func (c *Generational) major() Stats {
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
		} else if !o.InOld {
			// Promote young survivors so the post-cycle heap has an
			// empty nursery and a clean remembered set.
			o.InOld = true
			o.Age++
			st.Promoted++
		}
		return true
	})
	for _, h := range dead {
		c.Heap.Free(h)
	}
	st.Freed = int64(len(dead))
	c.nurseryUsed = 0
	clear(c.remembered)
	return st
}
