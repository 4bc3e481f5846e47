// Package heap implements the handle-based managed heap that the dragprof
// virtual machine allocates from. It mirrors the memory system of the JVM
// the paper instrumented (Sun's classic JVM 1.2): objects are addressed
// through indirect handles so collectors may relocate storage, object sizes
// include an 8-byte header and padding to an 8-byte boundary but exclude the
// handle (and, in our profiler, the trailer), and time is measured in bytes
// allocated since program start.
package heap

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"dragprof/internal/bytecode"
)

// Handle is an indirect reference to a heap object. The zero Handle is the
// null reference.
type Handle int32

// IsNull reports whether the handle is the null reference.
func (h Handle) IsNull() bool { return h == 0 }

// Value is a tagged slot value: either an integer-like payload (int, bool,
// char) or a reference. The tag lets collectors trace any slot without
// per-class reference maps. Field order keeps the struct at 16 bytes.
type Value struct {
	I     int64  // integer payload when !IsRef
	H     Handle // reference payload when IsRef
	IsRef bool
}

// IntValue returns an integer slot value.
func IntValue(i int64) Value { return Value{I: i} }

// BoolValue returns a boolean slot value.
func BoolValue(b bool) Value {
	if b {
		return Value{I: 1}
	}
	return Value{}
}

// RefValue returns a reference slot value.
func RefValue(h Handle) Value { return Value{IsRef: true, H: h} }

// Null is the null reference value.
var Null = Value{IsRef: true}

// Bool reports the value as a boolean.
func (v Value) Bool() bool { return v.I != 0 }

// String renders the value for diagnostics.
func (v Value) String() string {
	if v.IsRef {
		if v.H.IsNull() {
			return "null"
		}
		return fmt.Sprintf("ref@%d", v.H)
	}
	return fmt.Sprintf("%d", v.I)
}

// Kind distinguishes plain objects from arrays.
type Kind uint8

// Object kinds.
const (
	// KindObject is a class instance.
	KindObject Kind = iota
	// KindArray is an array.
	KindArray
)

// Object is the storage of one heap object. Collector bookkeeping (mark
// bit, age, generation) and the use half of the profiler's trailer live
// here, so neither collectors nor the VM's use recording need side tables.
// Fields are ordered to keep the struct at 96 bytes.
type Object struct {
	// Class is the class id for instances; -1 for arrays.
	Class int32
	// Count is the number of slots (array length or field count).
	Count int32
	// Slots holds field values (instances) or elements (arrays).
	// Primitive arrays are materialized lazily: a nil Slots with a
	// nonzero Count reads as all-zero elements. Instances and reference
	// arrays are always materialized.
	Slots []Value
	// Size is the object's size in bytes: header plus payload, padded to
	// an 8-byte boundary. It excludes the handle and any profiler trailer,
	// per Section 2.1.1 of the paper.
	Size int64
	// Addr is the object's current virtual address; compacting and
	// copying collectors update it.
	Addr int64
	// AllocID is a unique, monotonically increasing allocation id.
	AllocID uint64

	// LastUse, Uses, LastUseChain and LastUseKind are the use half of the
	// profiler's trailer (Section 2.1.1): the allocation clock at the last
	// use, the number of uses, the interned nested site of the last use
	// and its kind (a vm.UseKind). The VM writes them in place on every
	// use of an observed object; the profiler copies them out when the
	// object is reclaimed or the program ends. They mean nothing while
	// Uses is 0.
	LastUse      int64
	Uses         int64
	LastUseChain int32
	LastUseKind  uint8

	// Kind distinguishes instances from arrays.
	Kind Kind
	// Elem is the element kind for arrays.
	Elem bytecode.ElemKind
	// MonitorCount is the monitor entry count (monitorenter/monitorexit).
	MonitorCount int32

	// Mark is the tracing mark bit.
	Mark bool
	// Age counts minor collections survived (generational collector).
	Age uint8
	// InOld is true once the object has been promoted to the old
	// generation.
	InOld bool
	// Finalizable is true when the object's class declares finalize()
	// and the finalizer has not yet been enqueued.
	Finalizable bool
	// Interned marks VM-interned objects (string literals); the profiler
	// excludes them from reports, as the paper excludes constant-pool
	// strings.
	Interned bool
	// Sampled marks objects selected by the VM's byte-weighted sampler.
	// When sampling is off every object is implicitly sampled; when it is
	// on, uses are recorded only in sampled objects, so unsampled
	// ones carry zero profiling overhead past the allocation countdown.
	Sampled bool
}

// HoldsRefs reports whether any slot of o may hold a reference: o is an
// instance or a reference array. Tracing skips the slots of every other
// object, the primitive arrays.
func (o *Object) HoldsRefs() bool {
	return o.Kind == KindObject || o.Elem == bytecode.ElemRef
}

// Len returns the number of slots (array length or field count).
func (o *Object) Len() int { return int(o.Count) }

// Get reads slot i, treating unmaterialized primitive storage as zero.
func (o *Object) Get(i int) Value {
	if o.Slots == nil {
		return Value{}
	}
	return o.Slots[i]
}

// Set writes slot i, materializing primitive storage on first write.
func (o *Object) Set(i int, v Value) {
	if o.Slots == nil {
		o.Slots = make([]Value, o.Count)
	}
	o.Slots[i] = v
}

// Materialize forces slot storage to exist (bulk writers index Slots
// directly afterwards).
func (o *Object) Materialize() {
	if o.Slots == nil {
		o.Slots = make([]Value, o.Count)
	}
}

// HeaderBytes is the per-object header size.
const HeaderBytes = 8

// ObjectSize returns the byte size of an instance with the given number of
// field slots: 8-byte header + 4 bytes per slot, padded to 8 bytes.
func ObjectSize(nslots int) int64 {
	return align8(HeaderBytes + 4*int64(nslots))
}

// ArraySize returns the byte size of an array: 8-byte header + 4-byte length
// word + element payload, padded to 8 bytes.
func ArraySize(elem bytecode.ElemKind, length int) int64 {
	return align8(HeaderBytes + 4 + elem.ElemBytes()*int64(length))
}

func align8(n int64) int64 { return (n + 7) &^ 7 }

// ErrHeapFull is returned by allocation when the live heap plus the request
// exceeds capacity; the caller is expected to collect garbage and retry.
var ErrHeapFull = errors.New("heap: out of memory")

// FreeListener observes object reclamation. The profiler registers one to
// log trailers at the moment the collector frees an object.
type FreeListener func(h Handle, o *Object)

// Heap is a managed heap with a handle table and an allocation clock.
type Heap struct {
	objs    []*Object // handle -> object; objs[0] is the null entry
	free    []Handle  // recycled handles
	caps    int64     // capacity in bytes
	used    int64     // bytes occupied by live (not yet freed) objects
	clock   int64     // bytes allocated since creation (never decreases)
	cursor  int64     // bump pointer for virtual addresses
	nextID  uint64
	numLive int

	listener FreeListener
}

// New returns an empty heap with the given capacity in bytes.
func New(capacity int64) *Heap {
	return &Heap{
		objs: make([]*Object, 1, 1024),
		caps: capacity,
	}
}

// SetFreeListener registers the reclamation observer. A nil listener
// disables observation.
func (hp *Heap) SetFreeListener(l FreeListener) { hp.listener = l }

// Capacity returns the heap capacity in bytes.
func (hp *Heap) Capacity() int64 { return hp.caps }

// SetCapacity grows or shrinks the capacity (models -Xmx style expansion).
func (hp *Heap) SetCapacity(c int64) { hp.caps = c }

// Used returns the bytes currently occupied by live objects.
func (hp *Heap) Used() int64 { return hp.used }

// Clock returns the allocation clock: total bytes allocated since creation.
// This is the paper's notion of time.
func (hp *Heap) Clock() int64 { return hp.clock }

// NumLive returns the number of live objects.
func (hp *Heap) NumLive() int { return hp.numLive }

// Fits reports whether an allocation of size bytes would fit without
// collection.
func (hp *Heap) Fits(size int64) bool { return hp.used+size <= hp.caps }

// AllocObject allocates an instance of class with nslots field slots.
// refSlots marks which slots hold references; those are initialized to null
// (others to integer zero). finalizable marks instances whose class declares
// finalize().
func (hp *Heap) AllocObject(class int32, nslots int, refSlots []bool, finalizable bool) (Handle, error) {
	size := ObjectSize(nslots)
	o := &Object{
		Class:       class,
		Kind:        KindObject,
		Count:       int32(nslots),
		Slots:       make([]Value, nslots),
		Size:        size,
		Finalizable: finalizable,
	}
	for i, isRef := range refSlots {
		if isRef {
			o.Slots[i] = Null
		}
	}
	return hp.install(o)
}

// AllocArray allocates an array of the given element kind and length.
// Reference arrays have every element initialized to null.
func (hp *Heap) AllocArray(elem bytecode.ElemKind, length int) (Handle, error) {
	o := &Object{
		Class: -1,
		Kind:  KindArray,
		Elem:  elem,
		Count: int32(length),
		Size:  ArraySize(elem, length),
	}
	// Reference arrays must exist for tracing; primitive arrays stay
	// unmaterialized (all-zero) until the first write.
	if elem == bytecode.ElemRef {
		o.Slots = make([]Value, length)
		for i := range o.Slots {
			o.Slots[i] = Null
		}
	}
	return hp.install(o)
}

func (hp *Heap) install(o *Object) (Handle, error) {
	if !hp.Fits(o.Size) {
		return 0, ErrHeapFull
	}
	o.AllocID = hp.nextID
	hp.nextID++
	o.Addr = hp.cursor
	hp.cursor += o.Size
	hp.used += o.Size
	hp.clock += o.Size
	hp.numLive++

	var h Handle
	if n := len(hp.free); n > 0 {
		h = hp.free[n-1]
		hp.free = hp.free[:n-1]
		hp.objs[h] = o
	} else {
		h = Handle(len(hp.objs))
		hp.objs = append(hp.objs, o)
	}
	return h, nil
}

// Get returns the object for a handle. It panics on the null handle or a
// freed handle; verified bytecode guards nullness before dereferencing.
func (hp *Heap) Get(h Handle) *Object {
	o := hp.objs[h]
	if o == nil {
		panic(fmt.Sprintf("heap: dangling or null handle %d", h))
	}
	return o
}

// Lookup returns the object for a handle, or nil for null/freed handles.
func (hp *Heap) Lookup(h Handle) *Object {
	if h <= 0 || int(h) >= len(hp.objs) {
		return nil
	}
	return hp.objs[h]
}

// Free reclaims the object behind the handle, notifying the free listener
// first (so it can read the object's final state) and then recycling the
// handle. Collectors call this during sweeping.
func (hp *Heap) Free(h Handle) {
	o := hp.objs[h]
	if o == nil {
		panic(fmt.Sprintf("heap: double free of handle %d", h))
	}
	if hp.listener != nil {
		hp.listener(h, o)
	}
	hp.used -= o.Size
	hp.numLive--
	hp.objs[h] = nil
	hp.free = append(hp.free, h)
}

// FreeIfID reclaims the object behind h only when it is still live and its
// AllocID equals id. This is the guard mutator-initiated reclamation (the
// VM's frame regions) needs: between registration and the frame's exit the
// collector may have freed the object and recycled the handle for an
// unrelated allocation, which the id mismatch detects. It returns the freed
// object (final state, as seen by the FreeListener) or nil when nothing was
// freed.
func (hp *Heap) FreeIfID(h Handle, id uint64) *Object {
	o := hp.Lookup(h)
	if o == nil || o.AllocID != id {
		return nil
	}
	hp.Free(h)
	return o
}

// ForEach calls f for every live object until f returns false. Iteration is
// in handle order, which is deterministic.
func (hp *Heap) ForEach(f func(Handle, *Object) bool) {
	for i := 1; i < len(hp.objs); i++ {
		if o := hp.objs[i]; o != nil {
			if !f(Handle(i), o) {
				return
			}
		}
	}
}

// Compact reassigns dense virtual addresses to all live objects in address
// order, resetting the bump cursor. Storage does not physically move (the
// handle indirection makes that unobservable), but the address map matches
// what a sliding compactor would produce.
func (hp *Heap) Compact() {
	live := make([]*Object, 0, hp.numLive)
	hp.ForEach(func(_ Handle, o *Object) bool {
		live = append(live, o)
		return true
	})
	// Preserve address order, as a sliding compactor would. Addresses
	// of live objects are unique.
	slices.SortFunc(live, func(a, b *Object) int { return cmp.Compare(a.Addr, b.Addr) })
	var cursor int64
	for _, o := range live {
		o.Addr = cursor
		cursor += o.Size
	}
	hp.cursor = cursor
}
