package vm

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"dragprof/internal/bytecode"
	"dragprof/internal/gc"
	"dragprof/internal/heap"
	"dragprof/internal/xrand"
)

// CollectorKind selects the garbage collector.
type CollectorKind string

// Collector kinds.
const (
	// MarkSweep is the default full-heap collector (classic JVM).
	MarkSweep CollectorKind = "mark-sweep"
	// MarkCompact adds a sliding compaction pass after each sweep.
	MarkCompact CollectorKind = "mark-compact"
	// Generational is the two-generation collector (HotSpot-style).
	Generational CollectorKind = "generational"
)

// Config configures a VM instance.
type Config struct {
	// HeapCapacity is the heap size in bytes (default 48 MB, the paper's
	// maximum heap for the SPECjvm98 runs).
	HeapCapacity int64
	// Collector selects the GC (default MarkSweep).
	Collector CollectorKind
	// NurserySize is the generational nursery budget (default 4 MB).
	NurserySize int64
	// GCInterval triggers a deep GC every GCInterval allocated bytes
	// (the paper's 100 KB profiling trigger); 0 disables it.
	GCInterval int64
	// Out receives program output; nil captures it internally.
	Out io.Writer
	// Listener observes allocations; when it is set, uses are recorded
	// in the objects' trailers. nil disables profiling.
	Listener Listener
	// MaxSteps aborts runaway programs (default 4e9 instructions).
	MaxSteps int64
	// Seed seeds the deterministic pseudo-random builtin.
	Seed uint64
	// SampleRate is the per-byte probability of the profiler's
	// byte-weighted sampler. Outside (0, 1) — including the zero value —
	// every allocation is profiled (the exact, legacy mode). Inside it,
	// the listener sees only sampled objects: an object of s bytes is
	// selected with probability 1-(1-SampleRate)^s via a geometric byte
	// countdown, and unsampled objects emit no events at all.
	SampleRate float64
	// SampleSeed seeds the sampler's deterministic generator; 0 selects a
	// fixed default, so runs are reproducible unless a seed is chosen.
	SampleSeed uint64
	// LiveSlotFilter, when non-nil, lets collectors skip dead local
	// slots as roots: a slot is treated as a root only when the filter
	// reports it live at the frame's current pc. This is the
	// Agesen-style liveness/GC integration the paper cites as the
	// automatic alternative to source-level null assignment.
	LiveSlotFilter func(method int32, pc int, slot int32) bool
	// Budgets bound the run's resources (allocation bytes, live heap,
	// wall clock, context cancellation); exhaustion halts the run with a
	// *BudgetError at a safepoint, trailers intact.
	Budgets Budgets
}

// DefaultHeapCapacity matches the paper's 48 MB maximum heap.
const DefaultHeapCapacity = 48 << 20

// Cost is the VM's deterministic work accounting, the basis of the
// reproduction's Table 4 runtime comparison.
type Cost struct {
	// Instructions counts executed bytecode instructions.
	Instructions int64
	// Allocations counts objects allocated.
	Allocations int64
	// AllocBytes counts bytes allocated.
	AllocBytes int64
	// Builtins counts builtin invocations.
	Builtins int64
	// RegionFrees counts objects reclaimed by frame-region exit (the
	// optimizer's escape-proved allocations), RegionFreedBytes their bytes.
	RegionFrees      int64
	RegionFreedBytes int64
	// GC is the collector's accumulated statistics.
	GC gc.Stats
}

// RuntimeUnits folds the cost into a single scalar: one unit per
// instruction, ten per allocation (header setup, zeroing amortized), one
// per eight allocated bytes, plus collector work. A region free costs one
// unit, same as a sweep free, so optimized and baseline runs compare on
// equal footing.
func (c Cost) RuntimeUnits() int64 {
	return c.Instructions + 10*c.Allocations + c.AllocBytes/8 + c.RegionFrees + c.GC.Work()
}

// regionEntry records one frame-region allocation. The AllocID guards the
// exit-time free against handles the collector already reclaimed and
// recycled for unrelated objects.
type regionEntry struct {
	h  heap.Handle
	id uint64
}

type frame struct {
	m      *bytecode.Method
	pc     int
	lastpc int
	locals []heap.Value
	stack  []heap.Value
	chain  int32
	// memo is the VM's chain memo for m (see chainAt).
	memo []chainMemo
	// region lists this frame's escape-proved allocations
	// (RegionNewObject/RegionNewArray); they are freed wholesale when the
	// frame exits. The list is deliberately NOT a GC root: if the
	// collector frees an entry first, the AllocID guard skips it.
	region []regionEntry
}

// chainMemo remembers, for one instruction of one method, the chain last
// interned there: parent extended by the instruction's (method, line) is
// chain. An empty entry has parent noChain, which no frame's chain equals.
type chainMemo struct {
	parent, chain int32
}

// noChain marks an empty chainMemo; chain ids are -1 (the empty chain) or
// more.
const noChain = -2

// chainAt returns the id of f's chain extended by (f.m.ID, line of the
// instruction at pc), the nested site of a call, allocation or use there.
// A memo hit costs a compare; a miss interns exactly as without the memo,
// so chain ids keep their first-seen order.
func (vm *VM) chainAt(f *frame, pc int) int32 {
	if e := f.memo[pc]; e.parent == f.chain {
		return e.chain
	}
	return vm.internAt(f, pc)
}

// internAt is chainAt's miss path: it interns the chain and memoizes it.
func (vm *VM) internAt(f *frame, pc int) int32 {
	c := vm.chains.Intern(f.chain, f.m.ID, f.m.Code[pc].Line)
	f.memo[pc] = chainMemo{parent: f.chain, chain: c}
	return c
}

// memoOf returns m's chain memo, one entry per instruction, allocating it
// on m's first call. The memo belongs to the VM rather than to the
// program, which several VMs may run at once.
func (vm *VM) memoOf(m *bytecode.Method) []chainMemo {
	t := vm.memos[m.ID]
	if t == nil {
		t = make([]chainMemo, len(m.Code))
		for i := range t {
			t[i].parent = noChain
		}
		vm.memos[m.ID] = t
	}
	return t
}

func (f *frame) push(v heap.Value) { f.stack = append(f.stack, v) }

func (f *frame) pop() heap.Value {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

// VM interprets a compiled program over the managed heap.
type VM struct {
	prog *bytecode.Program
	hp   *heap.Heap
	col  gc.Collector
	bar  gc.Barrier

	// frames is the call stack. Entries past len(frames) are popped
	// frames kept for reuse, so a call allocates nothing once the stack
	// has been that deep before.
	frames  []*frame
	statics [][]heap.Value

	chains *ChainTable
	// memos holds each method's chain memo, indexed by method id; nil
	// until the method's first call.
	memos    [][]chainMemo
	listener Listener
	// sampler is non-nil only when cfg.SampleRate is in (0, 1); its byte
	// countdown gates every listener event.
	sampler *xrand.Skipper

	out    io.Writer
	outBuf *bytes.Buffer

	interned      map[int32]heap.Handle
	tempRoots     []heap.Handle
	finalizeRoots []heap.Handle
	preallocOOM   heap.Handle

	// finalizeVIndex caches the vtable index of finalize() per class
	// (-1 when absent).
	finalizeVIndex []int32

	liveFilter func(method int32, pc int, slot int32) bool

	rng        uint64
	cost       Cost
	maxSteps   int64
	gcInterval int64
	lastDeep   int64

	// pollAt is the poll word: the interpreter loop leaves its fast path
	// once cost.Instructions reaches it. rearm sets it; halting, and an
	// allocation that makes a safepoint due, set it to 0.
	pollAt int64

	budgets       Budgets
	budgetsActive bool
	started       time.Time

	pendingMinor bool
	inGC         bool
	barriers     []int
	halted       bool
	haltErr      error
	lastResult   heap.Value
	hasResult    bool
}

// New creates a VM for the program. The program must verify.
func New(prog *bytecode.Program, cfg Config) (*VM, error) {
	if cfg.HeapCapacity <= 0 {
		cfg.HeapCapacity = DefaultHeapCapacity
	}
	if cfg.NurserySize <= 0 {
		cfg.NurserySize = 4 << 20
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 4_000_000_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x9E3779B97F4A7C15
	}
	vm := &VM{
		prog:       prog,
		hp:         heap.New(cfg.HeapCapacity),
		chains:     NewChainTable(),
		memos:      make([][]chainMemo, len(prog.Methods)),
		listener:   cfg.Listener,
		interned:   make(map[int32]heap.Handle),
		rng:        cfg.Seed,
		maxSteps:   cfg.MaxSteps,
		gcInterval: cfg.GCInterval,
		liveFilter: cfg.LiveSlotFilter,

		budgets:       cfg.Budgets,
		budgetsActive: cfg.Budgets.active(),
	}
	if cfg.SampleRate > 0 && cfg.SampleRate < 1 {
		vm.sampler = xrand.NewSkipper(cfg.SampleRate, cfg.SampleSeed)
	}
	switch cfg.Collector {
	case "", MarkSweep:
		vm.col = gc.NewMarkSweep(vm.hp, vm)
	case MarkCompact:
		ms := gc.NewMarkSweep(vm.hp, vm)
		ms.Compact = true
		vm.col = ms
	case Generational:
		g := gc.NewGenerational(vm.hp, vm, cfg.NurserySize)
		vm.col = g
		vm.bar = g
	default:
		return nil, fmt.Errorf("vm: unknown collector %q", cfg.Collector)
	}
	if cfg.Out != nil {
		vm.out = cfg.Out
	} else {
		vm.outBuf = &bytes.Buffer{}
		vm.out = vm.outBuf
	}
	vm.statics = make([][]heap.Value, len(prog.Classes))
	vm.finalizeVIndex = make([]int32, len(prog.Classes))
	for i, c := range prog.Classes {
		slots := make([]heap.Value, c.NumStaticSlots)
		for s, isRef := range c.StaticRefSlots {
			if isRef {
				slots[s] = heap.Null
			}
		}
		vm.statics[i] = slots
		vm.finalizeVIndex[i] = -1
		for vi, name := range c.VTableNames {
			if name == "finalize" {
				vm.finalizeVIndex[i] = int32(vi)
			}
		}
	}
	return vm, nil
}

// Output returns the program output captured so far (only when Config.Out
// was nil).
func (vm *VM) Output() string {
	if vm.outBuf == nil {
		return ""
	}
	return vm.outBuf.String()
}

// CostReport returns the accumulated deterministic cost, including GC work.
func (vm *VM) CostReport() Cost {
	c := vm.cost
	c.GC = vm.col.TotalStats()
	return c
}

// Heap exposes the VM's heap (read-mostly; the profiler samples its clock).
func (vm *VM) Heap() *heap.Heap { return vm.hp }

// Collector exposes the VM's collector.
func (vm *VM) Collector() gc.Collector { return vm.col }

// Chains exposes the interned call-chain table for report rendering.
func (vm *VM) Chains() *ChainTable { return vm.chains }

// Program returns the program being executed.
func (vm *VM) Program() *bytecode.Program { return vm.prog }

// VisitRoots implements gc.Roots: frame locals and operand stacks, static
// fields, interned strings, VM temporaries and pending finalizer handles.
func (vm *VM) VisitRoots(visit func(heap.Handle)) {
	for _, f := range vm.frames {
		for i, v := range f.locals {
			if !v.IsRef {
				continue
			}
			if vm.liveFilter != nil && f.pc < len(f.m.Code) &&
				!vm.liveFilter(f.m.ID, f.pc, int32(i)) {
				continue
			}
			visit(v.H)
		}
		for _, v := range f.stack {
			if v.IsRef {
				visit(v.H)
			}
		}
	}
	for _, slots := range vm.statics {
		for _, v := range slots {
			if v.IsRef {
				visit(v.H)
			}
		}
	}
	for _, h := range vm.interned {
		visit(h)
	}
	for _, h := range vm.tempRoots {
		visit(h)
	}
	for _, h := range vm.finalizeRoots {
		visit(h)
	}
	if !vm.preallocOOM.IsNull() {
		visit(vm.preallocOOM)
	}
}

// Run executes the program: the preallocated OutOfMemoryError, every static
// initializer in declaration order, then main. It returns an error for
// uncaught exceptions, VM faults, or step-budget exhaustion. On normal
// termination, when a GCInterval is configured a final deep GC runs so the
// profiler sees end-of-run reclamation (Section 2.1.1).
func (vm *VM) Run() error {
	vm.started = time.Now()
	if oomClass, ok := vm.prog.RuntimeClasses["OutOfMemoryError"]; ok {
		h, err := vm.allocObject(oomClass, vm.prog.RuntimeSites["OutOfMemoryError"], true)
		if err != nil {
			return fmt.Errorf("vm: preallocating OutOfMemoryError: %w", err)
		}
		vm.preallocOOM = h
	}
	for _, mid := range vm.prog.StaticInits {
		if _, err := vm.callSync(vm.prog.Methods[mid], nil, -1); err != nil {
			return err
		}
	}
	_, err := vm.callSync(vm.prog.Methods[vm.prog.Main], nil, -1)
	if err == nil && vm.gcInterval > 0 {
		vm.DeepGC()
	}
	return err
}

// callSync pushes a frame for m with the given arguments and interprets
// until it returns, yielding the returned value (if any).
func (vm *VM) callSync(m *bytecode.Method, args []heap.Value, chain int32) (heap.Value, error) {
	base := len(vm.frames)
	vm.barriers = append(vm.barriers, base)
	defer func() { vm.barriers = vm.barriers[:len(vm.barriers)-1] }()
	vm.pushFrame(m, args, chain)
	if err := vm.interpret(base); err != nil {
		return heap.Value{}, err
	}
	res := vm.lastResult
	vm.hasResult = false
	return res, nil
}

// pushFrame pushes a frame for m whose first locals are args. args may
// alias the caller's operand stack: it is copied before anything else runs.
func (vm *VM) pushFrame(m *bytecode.Method, args []heap.Value, chain int32) {
	n := len(vm.frames)
	if n < cap(vm.frames) {
		vm.frames = vm.frames[:n+1]
	} else {
		vm.frames = append(vm.frames, nil)
	}
	f := vm.frames[n]
	if f == nil {
		f = &frame{}
		vm.frames[n] = f
	}
	if cap(f.locals) >= m.MaxLocals {
		f.locals = f.locals[:m.MaxLocals]
		clear(f.locals)
	} else {
		f.locals = make([]heap.Value, m.MaxLocals)
	}
	copy(f.locals, args)
	f.stack = f.stack[:0]
	f.m, f.pc, f.lastpc = m, 0, 0
	f.chain, f.memo = chain, vm.memoOf(m)
}

func (vm *VM) top() *frame { return vm.frames[len(vm.frames)-1] }

// regionMaxEntries bounds per-frame region bookkeeping. Registration is an
// optimization, never a requirement — an unregistered object simply stays
// with the collector, exactly as before the optimizer ran — so overflowing
// frames degrade gracefully instead of growing without bound.
const regionMaxEntries = 1 << 16

// noteRegion registers a fresh allocation in the frame's region.
func (vm *VM) noteRegion(f *frame, h heap.Handle) {
	if len(f.region) >= regionMaxEntries {
		return
	}
	f.region = append(f.region, regionEntry{h: h, id: vm.hp.Get(h).AllocID})
}

// popFrame discards the top frame and reclaims its region wholesale, in
// reverse allocation order. Every frame exit — normal return or exception
// unwinding — funnels through here. The frame itself stays in vm.frames'
// spare capacity for the next push.
func (vm *VM) popFrame() {
	f := vm.frames[len(vm.frames)-1]
	vm.frames = vm.frames[:len(vm.frames)-1]
	if len(f.region) == 0 {
		return
	}
	obs, _ := vm.col.(gc.FreeObserver)
	for i := len(f.region) - 1; i >= 0; i-- {
		e := f.region[i]
		o := vm.hp.FreeIfID(e.h, e.id)
		if o == nil {
			continue
		}
		if obs != nil {
			obs.NoteFree(e.h, o)
		}
		vm.cost.RegionFrees++
		vm.cost.RegionFreedBytes += o.Size
	}
	f.region = nil
}

// halt stops the VM with err; the interpreter loop returns it at its next
// poll.
func (vm *VM) halt(err error) {
	vm.halted, vm.haltErr = true, err
	vm.pollAt = 0
}

// fatal halts the VM with an unrecoverable error.
func (vm *VM) fatal(format string, args ...any) {
	vm.halt(fmt.Errorf("vm: %s", fmt.Sprintf(format, args...)))
}

// ErrStepBudget reports MaxSteps exhaustion.
var ErrStepBudget = errors.New("vm: step budget exhausted (possible non-termination)")

// poll is the interpreter loop's slow path, run after an instruction when
// the instruction count reaches the poll word. Unless the VM has halted it
// runs the safepoint; then, if the step budget is spent and the loop would
// go on, it halts with ErrStepBudget, counting the instruction it would
// have run next. It re-arms the poll word and reports whether the VM has
// halted.
func (vm *VM) poll(base int) bool {
	if !vm.halted {
		vm.safepoint()
	}
	if !vm.halted && vm.cost.Instructions >= vm.maxSteps && len(vm.frames) > base {
		vm.cost.Instructions++
		vm.halt(ErrStepBudget)
	}
	vm.rearm()
	return vm.halted
}

// safepoint runs the work deferred to the gap between two instructions,
// when every live reference is rooted in a frame: a pending minor
// collection, the deep GC the allocation clock calls for, and the budget
// checks. Nested triggers are suppressed while a collection (or its
// finalizers) is running. With nothing due it does nothing, so an extra
// poll is harmless.
func (vm *VM) safepoint() {
	if vm.inGC {
		return
	}
	if vm.pendingMinor {
		vm.pendingMinor = false
		vm.inGC = true
		vm.col.Collect(false)
		vm.runFinalizers(vm.col.DrainFinalizers())
		vm.inGC = false
	}
	if vm.gcInterval > 0 && vm.hp.Clock()-vm.lastDeep >= vm.gcInterval {
		vm.lastDeep = vm.hp.Clock()
		vm.DeepGC()
	}
	if vm.budgetsActive {
		vm.checkBudgets()
	}
}

// due reports whether the next safepoint has work to do besides the
// periodic wall-clock/context poll: a pending minor collection, a deep GC
// the allocation clock calls for, or an exceeded allocation or live-heap
// budget. Only an allocation can make it true.
func (vm *VM) due() bool {
	b := &vm.budgets
	return vm.pendingMinor ||
		vm.gcInterval > 0 && vm.hp.Clock()-vm.lastDeep >= vm.gcInterval ||
		b.AllocBytes > 0 && vm.cost.AllocBytes > b.AllocBytes ||
		b.HeapLiveBytes > 0 && vm.hp.Used() > b.HeapLiveBytes
}

// rearm sets the poll word after a poll: 0 (poll after the next
// instruction) while the VM is halted or a safepoint is due, else the
// instruction count at which the step budget runs out or, with budgets
// set, the next wall-clock/context poll falls. While a collection runs,
// a due safepoint keeps polling its finalizers' every instruction, so the
// interrupted loop still sees it once the collection ends.
func (vm *VM) rearm() {
	if vm.halted || vm.due() {
		vm.pollAt = 0
		return
	}
	at := vm.maxSteps
	if vm.budgetsActive {
		at = min(at, (vm.cost.Instructions/budgetPollSteps+1)*budgetPollSteps)
	}
	vm.pollAt = at
}

// DeepGC performs the paper's deep collection (gc.DeepGC): collect, run
// finalizers, collect again.
func (vm *VM) DeepGC() {
	if vm.inGC {
		return
	}
	vm.inGC = true
	gc.DeepGC(vm.col, vm.runFinalizers)
	vm.inGC = false
}

// runFinalizers runs finalize() on each object of a drained finalization
// queue; exceptions escaping a finalizer are discarded, as in Java.
func (vm *VM) runFinalizers(q []heap.Handle) {
	if len(q) == 0 {
		return
	}
	vm.finalizeRoots = append(vm.finalizeRoots, q...)
	for _, h := range q {
		o := vm.hp.Lookup(h)
		if o == nil || o.Class < 0 {
			continue
		}
		vi := vm.finalizeVIndex[o.Class]
		if vi < 0 {
			continue
		}
		m := vm.prog.Methods[vm.prog.Classes[o.Class].VTable[vi]]
		vm.emitUse(o, UseInvoke)
		saveHalt, saveErr := vm.halted, vm.haltErr
		_, err := vm.callSync(m, []heap.Value{heap.RefValue(h)}, -1)
		if err != nil && !vm.halted {
			_ = err // exception swallowed
		}
		if vm.halted && errors.Is(vm.haltErr, errUncaught) {
			// Finalizer exceptions are ignored.
			vm.halted, vm.haltErr = saveHalt, saveErr
		}
	}
	vm.finalizeRoots = vm.finalizeRoots[:0]
}

var errUncaught = errors.New("uncaught exception")

// Allocation.

// allocObject allocates an instance of class, retrying after a full
// collection, and falls back to throwing OutOfMemoryError via the caller
// (returning heap.ErrHeapFull) when memory is truly exhausted.
func (vm *VM) allocObject(class int32, site int32, interned bool) (heap.Handle, error) {
	c := vm.prog.Classes[class]
	h, err := vm.hp.AllocObject(class, int(c.NumFieldSlots), c.RefSlots, c.Finalizable)
	if err != nil {
		vm.collectForSpace()
		h, err = vm.hp.AllocObject(class, int(c.NumFieldSlots), c.RefSlots, c.Finalizable)
		if err != nil {
			return 0, err
		}
	}
	vm.noteAlloc(h, site, interned)
	return h, nil
}

func (vm *VM) allocArray(elem bytecode.ElemKind, length int, site int32, interned bool) (heap.Handle, error) {
	h, err := vm.hp.AllocArray(elem, length)
	if err != nil {
		vm.collectForSpace()
		h, err = vm.hp.AllocArray(elem, length)
		if err != nil {
			return 0, err
		}
	}
	vm.noteAlloc(h, site, interned)
	return h, nil
}

// collectForSpace runs a deep GC for an allocation that does not fit, or
// for the gc() builtin, even while another collection's finalizers run.
func (vm *VM) collectForSpace() {
	wasInGC := vm.inGC
	vm.inGC = true
	gc.DeepGC(vm.col, vm.runFinalizers)
	vm.inGC = wasInGC
}

func (vm *VM) noteAlloc(h heap.Handle, site int32, interned bool) {
	o := vm.hp.Get(h)
	o.Interned = interned
	vm.col.NoteAlloc(h, o)
	vm.cost.Allocations++
	vm.cost.AllocBytes += o.Size
	if g, ok := vm.col.(*gc.Generational); ok && g.NurseryFull() {
		vm.pendingMinor = true
	}
	if vm.due() {
		vm.pollAt = 0
	}
	if vm.listener != nil {
		if vm.sampler != nil {
			// Byte-weighted sampling: count the object's bytes down; an
			// unsampled object pays this compare-and-subtract and nothing
			// else (no chain interning, no listener call, no trailer).
			if !vm.sampler.Take(o.Size) {
				return
			}
			o.Sampled = true
		}
		vm.listener.Alloc(h, o, site, vm.curChain(), vm.hp.Clock())
	}
}

// observes reports whether a use of o is recorded in its trailer: a
// listener is set, and either every object is profiled or the sampler
// selected o.
func (vm *VM) observes(o *heap.Object) bool {
	return vm.listener != nil && (vm.sampler == nil || o.Sampled)
}

// touch records a use of o at the nested site chain in o's trailer.
func (vm *VM) touch(o *heap.Object, chain int32, kind UseKind) {
	o.LastUse = vm.hp.Clock()
	o.LastUseChain = chain
	o.LastUseKind = uint8(kind)
	o.Uses++
}

// emitUse records a use of o by the instruction the top frame is
// executing, if o is observed. The interpreter loop records its own uses
// inline; exec, builtins and finalizers call this.
func (vm *VM) emitUse(o *heap.Object, kind UseKind) {
	if vm.observes(o) {
		vm.touch(o, vm.curChain(), kind)
	}
}

// curChain is the nested site of the instruction the top frame is
// executing, or -1 (the empty chain) outside any frame.
func (vm *VM) curChain() int32 {
	if len(vm.frames) == 0 {
		return -1
	}
	f := vm.top()
	return vm.chainAt(f, f.lastpc)
}

// Exceptions.

// throwByName raises one of the VM's runtime exceptions (NPE, bounds, ...).
func (vm *VM) throwByName(name string, detail string) {
	class, ok := vm.prog.RuntimeClasses[name]
	if !ok {
		vm.fatal("%s: %s (class %s not declared; include the runtime library)", name, detail, name)
		return
	}
	h, err := vm.allocObject(class, vm.prog.RuntimeSites[name], false)
	if err != nil {
		vm.throwOOM()
		return
	}
	vm.throwHandle(h)
}

func (vm *VM) throwOOM() {
	if vm.preallocOOM.IsNull() {
		vm.fatal("out of memory (no OutOfMemoryError class declared)")
		return
	}
	vm.throwHandle(vm.preallocOOM)
}

// throwHandle unwinds frames looking for a matching handler; the operand
// stack of the catching frame is cleared and the exception pushed.
func (vm *VM) throwHandle(exc heap.Handle) {
	o := vm.hp.Lookup(exc)
	excClass := int32(-1)
	if o != nil {
		excClass = o.Class
	}
	barrier := 0
	if len(vm.barriers) > 0 {
		barrier = vm.barriers[len(vm.barriers)-1]
	}
	for len(vm.frames) > barrier {
		f := vm.top()
		pc := int32(f.lastpc)
		for _, ex := range f.m.Exceptions {
			if pc < ex.From || pc >= ex.To {
				continue
			}
			if ex.CatchClass >= 0 && (excClass < 0 || !vm.prog.IsSubclass(excClass, ex.CatchClass)) {
				continue
			}
			f.stack = f.stack[:0]
			f.push(heap.RefValue(exc))
			f.pc = int(ex.Handler)
			return
		}
		vm.popFrame()
	}
	name := "<unknown>"
	if excClass >= 0 {
		name = vm.prog.Classes[excClass].Name
	}
	msg := vm.throwableMessage(exc)
	if msg != "" {
		vm.halt(fmt.Errorf("%w: %s: %s", errUncaught, name, msg))
	} else {
		vm.halt(fmt.Errorf("%w: %s", errUncaught, name))
	}
}

// throwableMessage extracts the String field named "message" from an
// exception object, if present.
func (vm *VM) throwableMessage(exc heap.Handle) string {
	o := vm.hp.Lookup(exc)
	if o == nil || o.Class < 0 {
		return ""
	}
	for cid := o.Class; cid >= 0; cid = vm.prog.Classes[cid].Super {
		for _, fd := range vm.prog.Classes[cid].Fields {
			if fd.Name == "message" && !fd.Static && fd.Ref {
				v := o.Slots[fd.Slot]
				if v.IsRef && !v.H.IsNull() {
					return vm.StringValue(v.H)
				}
				return ""
			}
		}
	}
	return ""
}

// StringValue reads a String object's characters as a Go string. It returns
// "" for nulls and non-String objects.
func (vm *VM) StringValue(h heap.Handle) string {
	o := vm.hp.Lookup(h)
	if o == nil || vm.prog.StringChars < 0 || o.Kind != heap.KindObject {
		return ""
	}
	cv := o.Get(int(vm.prog.StringChars))
	if !cv.IsRef || cv.H.IsNull() {
		return ""
	}
	arr := vm.hp.Lookup(cv.H)
	if arr == nil {
		return ""
	}
	buf := make([]byte, arr.Len())
	for i := range buf {
		buf[i] = byte(arr.Get(i).I)
	}
	return string(buf)
}

// makeString materializes a String object over a fresh char array.
func (vm *VM) makeString(s string, site int32, interned bool) (heap.Handle, error) {
	if vm.prog.StringClass < 0 || vm.prog.StringChars < 0 {
		return 0, errors.New("program has no String class with a chars field")
	}
	arr, err := vm.allocArray(bytecode.ElemChar, len(s), site, interned)
	if err != nil {
		return 0, err
	}
	vm.tempRoots = append(vm.tempRoots, arr)
	defer func() { vm.tempRoots = vm.tempRoots[:len(vm.tempRoots)-1] }()
	ao := vm.hp.Get(arr)
	ao.Materialize()
	for i := 0; i < len(s); i++ {
		ao.Slots[i] = heap.IntValue(int64(s[i]))
	}
	str, err := vm.allocObject(vm.prog.StringClass, site, interned)
	if err != nil {
		return 0, err
	}
	so := vm.hp.Get(str)
	so.Slots[vm.prog.StringChars] = heap.RefValue(arr)
	return str, nil
}

// internedString returns the cached String for pool index idx, creating it
// on first use. Interned strings model the constant pool: the profiler
// excludes them, as the paper excludes constant-pool strings.
func (vm *VM) internedString(idx int32) (heap.Handle, error) {
	if h, ok := vm.interned[idx]; ok {
		return h, nil
	}
	h, err := vm.makeString(vm.prog.Strings[idx], -1, true)
	if err != nil {
		return 0, err
	}
	vm.interned[idx] = h
	return h, nil
}

func (vm *VM) nextRand() uint64 {
	x := vm.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	vm.rng = x
	return x
}
