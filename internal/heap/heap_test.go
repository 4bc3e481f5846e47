package heap

import (
	"testing"
	"testing/quick"
	"unsafe"

	"dragprof/internal/bytecode"
)

func TestObjectStructSize(t *testing.T) {
	// Every allocation in the VM is one Object; the trailer fields fit
	// the 96-byte allocation class only in the declared field order.
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Object{}); got != 96 {
		t.Errorf("heap.Object is %d bytes, want 96", got)
	}
}

func TestSizes(t *testing.T) {
	cases := []struct {
		got, want int64
		name      string
	}{
		{ObjectSize(0), 8, "empty object"},
		{ObjectSize(1), 16, "1 slot pads to 16"},
		{ObjectSize(2), 16, "2 slots"},
		{ObjectSize(3), 24, "3 slots"},
		{ArraySize(bytecode.ElemInt, 0), 16, "empty int array"},
		{ArraySize(bytecode.ElemInt, 1), 16, "int[1]"},
		{ArraySize(bytecode.ElemInt, 3), 24, "int[3]"},
		{ArraySize(bytecode.ElemChar, 2), 16, "char[2]"},
		{ArraySize(bytecode.ElemBool, 4), 16, "bool[4]"},
		{ArraySize(bytecode.ElemRef, 2), 24, "ref[2]"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestSizeAlignmentProperty(t *testing.T) {
	// Every size is 8-byte aligned and at least header-sized; it grows
	// monotonically with the payload.
	f := func(nslots uint16, elem uint8, length uint16) bool {
		n := int(nslots % 1000)
		os := ObjectSize(n)
		if os%8 != 0 || os < HeaderBytes {
			return false
		}
		if ObjectSize(n+1) < os {
			return false
		}
		ek := bytecode.ElemKind(elem % 4)
		l := int(length % 10000)
		as := ArraySize(ek, l)
		if as%8 != 0 || as < HeaderBytes {
			return false
		}
		return ArraySize(ek, l+1) >= as
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocAndClock(t *testing.T) {
	h := New(1 << 20)
	h1, err := h.AllocObject(1, 2, []bool{false, true}, false)
	if err != nil {
		t.Fatal(err)
	}
	o1 := h.Get(h1)
	if h.Clock() != o1.Size {
		t.Errorf("clock = %d, want %d", h.Clock(), o1.Size)
	}
	if !o1.Slots[1].IsRef || !o1.Slots[1].H.IsNull() {
		t.Error("ref slot not initialized to null")
	}
	if o1.Slots[0].IsRef {
		t.Error("int slot marked as ref")
	}

	h2, err := h.AllocArray(bytecode.ElemRef, 3)
	if err != nil {
		t.Fatal(err)
	}
	o2 := h.Get(h2)
	for i := 0; i < o2.Len(); i++ {
		v := o2.Get(i)
		if !v.IsRef || !v.H.IsNull() {
			t.Errorf("ref array elem %d not null: %v", i, v)
		}
	}
	if h.Clock() != o1.Size+o2.Size {
		t.Errorf("clock after two allocations = %d", h.Clock())
	}
	if h.NumLive() != 2 {
		t.Errorf("live = %d", h.NumLive())
	}
}

func TestLazyPrimitiveArrays(t *testing.T) {
	h := New(1 << 20)
	hd, _ := h.AllocArray(bytecode.ElemInt, 1000)
	o := h.Get(hd)
	if o.Slots != nil {
		t.Error("primitive array materialized eagerly")
	}
	if o.Len() != 1000 {
		t.Errorf("len = %d", o.Len())
	}
	if v := o.Get(500); v.I != 0 || v.IsRef {
		t.Errorf("unmaterialized read = %v", v)
	}
	o.Set(500, IntValue(7))
	if o.Slots == nil {
		t.Error("write did not materialize")
	}
	if v := o.Get(500); v.I != 7 {
		t.Errorf("read-after-write = %v", v)
	}
	if v := o.Get(499); v.I != 0 {
		t.Errorf("neighbour = %v", v)
	}
}

func TestFreeAndReuse(t *testing.T) {
	h := New(1 << 20)
	var freed []Handle
	h.SetFreeListener(func(hd Handle, o *Object) {
		freed = append(freed, hd)
	})
	h1, _ := h.AllocObject(0, 1, nil, false)
	size := h.Get(h1).Size
	used := h.Used()
	h.Free(h1)
	if len(freed) != 1 || freed[0] != h1 {
		t.Errorf("free listener: %v", freed)
	}
	if h.Used() != used-size {
		t.Errorf("used after free = %d", h.Used())
	}
	if h.NumLive() != 0 {
		t.Errorf("live = %d", h.NumLive())
	}
	// Clock never decreases.
	clock := h.Clock()
	h2, _ := h.AllocObject(0, 1, nil, false)
	if h2 != h1 {
		t.Errorf("handle not recycled: %d vs %d", h2, h1)
	}
	if h.Clock() <= clock {
		t.Error("clock did not advance")
	}
	if h.Get(h2).AllocID == 0 {
		t.Error("alloc id not refreshed")
	}
}

func TestHeapFull(t *testing.T) {
	h := New(64)
	if _, err := h.AllocArray(bytecode.ElemInt, 100); err != ErrHeapFull {
		t.Fatalf("err = %v, want ErrHeapFull", err)
	}
	hd, err := h.AllocObject(0, 1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	h.Free(hd)
	if _, err := h.AllocObject(0, 1, nil, false); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
}

func TestCompactAddresses(t *testing.T) {
	h := New(1 << 20)
	var handles []Handle
	for i := 0; i < 10; i++ {
		hd, _ := h.AllocObject(0, 4, nil, false)
		handles = append(handles, hd)
	}
	// Free every other object, then compact.
	for i := 0; i < 10; i += 2 {
		h.Free(handles[i])
	}
	h.Compact()
	// Addresses must be dense: sum of sizes == max(addr+size).
	var total, maxEnd int64
	h.ForEach(func(_ Handle, o *Object) bool {
		total += o.Size
		if end := o.Addr + o.Size; end > maxEnd {
			maxEnd = end
		}
		return true
	})
	if total != maxEnd {
		t.Errorf("addresses not dense after compaction: total %d, extent %d", total, maxEnd)
	}
	// Relative order preserved.
	var last int64 = -1
	for i := 1; i < 10; i += 2 {
		addr := h.Get(handles[i]).Addr
		if addr <= last {
			t.Errorf("compaction reordered objects: %d after %d", addr, last)
		}
		last = addr
	}
}

func TestAllocIDsUniqueProperty(t *testing.T) {
	h := New(1 << 22)
	seen := map[uint64]bool{}
	f := func(freeIt bool, slots uint8) bool {
		hd, err := h.AllocObject(0, int(slots%16), nil, false)
		if err != nil {
			return true // heap full is fine
		}
		id := h.Get(hd).AllocID
		if seen[id] {
			return false
		}
		seen[id] = true
		if freeIt {
			h.Free(hd)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	h := New(1 << 20)
	hd, _ := h.AllocObject(0, 1, nil, false)
	h.Free(hd)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	h.Free(hd)
}
