package profile

import (
	"testing"

	"dragprof/internal/heap"
	"dragprof/internal/vm"
)

// recorderHeap is a heap with a recorder attached the way Run attaches it.
func recorderHeap() (*heap.Heap, *Recorder) {
	hp := heap.New(1 << 20)
	rec := NewRecorder()
	hp.SetFreeListener(rec.freeListener(hp.Clock))
	return hp, rec
}

func allocRecorded(t *testing.T, hp *heap.Heap, rec *Recorder, site int32) (heap.Handle, *heap.Object) {
	t.Helper()
	h, err := hp.AllocObject(0, 2, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	o := hp.Get(h)
	rec.Alloc(h, o, site, -1, hp.Clock())
	return h, o
}

// use writes a use into o's trailer, as the VM does.
func use(o *heap.Object, chain int32, clock int64, kind vm.UseKind) {
	o.LastUse, o.LastUseChain, o.LastUseKind = clock, chain, uint8(kind)
	o.Uses++
}

func TestRecorderRecycledHandle(t *testing.T) {
	hp, rec := recorderHeap()
	h1, o1 := allocRecorded(t, hp, rec, 1)
	use(o1, 7, hp.Clock(), vm.UseGetField)
	hp.Free(h1)

	h2, o2 := allocRecorded(t, hp, rec, 2)
	if h2 != h1 {
		t.Fatalf("heap did not recycle handle %d (got %d); the test needs a reused handle", h1, h2)
	}
	if o1.AllocID == o2.AllocID {
		t.Fatal("recycled handle kept its AllocID")
	}

	// A free carrying the first object's AllocID reaches the recycled
	// handle; it may not touch the second object's trailer. A stale use
	// writes only the first object, whose record was settled when it
	// was freed, so it cannot reach the second trailer at all.
	use(o1, 9, hp.Clock()+100, vm.UsePutField)
	rec.freeListener(hp.Clock)(h2, o1)
	live := rec.lookup(h2, o2)
	if live == nil {
		t.Fatal("second object's trailer was dropped by a stale free")
	}
	if live.Uses != 0 || live.LastUse != 0 || live.LastUseChain != -1 {
		t.Errorf("stale use reached the second trailer: %+v", live)
	}

	// A used object the recorder never saw (an unsampled object past the
	// end of the trailer table) is not logged.
	far, err := hp.AllocObject(0, 1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	use(hp.Get(far), 3, hp.Clock(), vm.UseGetField)

	use(o2, 11, hp.Clock(), vm.UseInvoke)
	rec.Finish(hp)
	recs := rec.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	first, second := recs[0], recs[1]
	if first.AllocID != o1.AllocID || first.Site != 1 || first.Uses != 1 ||
		first.LastUseChain != 7 || first.AtExit {
		t.Errorf("first trailer = %+v", first)
	}
	if second.AllocID != o2.AllocID || second.Site != 2 || second.Uses != 1 ||
		second.LastUseChain != 11 || !second.AtExit {
		t.Errorf("second trailer = %+v", second)
	}
}

func TestRecorderFinishLogsSurvivorsOnce(t *testing.T) {
	hp, rec := recorderHeap()
	var hs []heap.Handle
	for i := 0; i < 200; i++ {
		h, _ := allocRecorded(t, hp, rec, int32(i))
		hs = append(hs, h)
	}
	// Free every third object, then refill some of the freed handles.
	freed := map[uint64]bool{}
	for i := 0; i < len(hs); i += 3 {
		freed[hp.Get(hs[i]).AllocID] = true
		hp.Free(hs[i])
	}
	for i := 0; i < 30; i++ {
		allocRecorded(t, hp, rec, 1000+int32(i))
	}
	final := hp.Clock()
	rec.Finish(hp)
	if _, err := hp.AllocObject(0, 1, nil, false); err != nil { // moves the clock
		t.Fatal(err)
	}
	rec.Finish(hp) // nothing is left to log

	recs := rec.Records()
	if len(recs) != 230 {
		t.Fatalf("got %d records, want 230", len(recs))
	}
	seen := map[uint64]bool{}
	for i, r := range recs {
		if seen[r.AllocID] {
			t.Fatalf("AllocID %d logged twice", r.AllocID)
		}
		seen[r.AllocID] = true
		if i > 0 && recs[i-1].AllocID > r.AllocID {
			t.Fatalf("records out of allocation order at %d", i)
		}
		if r.AtExit == freed[r.AllocID] {
			t.Errorf("AllocID %d: AtExit %v, freed %v", r.AllocID, r.AtExit, freed[r.AllocID])
		}
		if r.AtExit && r.Collect != final {
			t.Errorf("survivor %d collected at %d, want the final clock %d", r.AllocID, r.Collect, final)
		}
	}
}
