// Package profile implements phase 1 of the paper's tool: the trailer
// recorder attached to the instrumented VM. Every object carries a trailer
// with its creation time, last-use time, size, nested allocation site and
// nested last-use site (Section 2.1.1); the trailer is logged when the
// object is reclaimed or when the program terminates. Time is measured in
// bytes allocated since program start.
package profile

import (
	"cmp"
	"slices"
	"strconv"

	"dragprof/internal/bytecode"
	"dragprof/internal/heap"
	"dragprof/internal/vm"
)

// DefaultGCInterval is the paper's deep-GC trigger: every 100 KB of
// allocation ("a larger interval yields less precise results").
const DefaultGCInterval = 100 << 10

// Record is one object's trailer, as logged at reclamation. Times are in
// bytes allocated since program start.
type Record struct {
	// AllocID is the unique allocation id.
	AllocID uint64
	// Class is the class id, or -1 for arrays.
	Class int32
	// Array is true for arrays.
	Array bool
	// Elem is the element kind for arrays.
	Elem bytecode.ElemKind
	// Size is the object size in bytes (header + payload, aligned;
	// excludes handle and trailer).
	Size int64
	// Site is the static allocation site id.
	Site int32
	// Chain is the nested allocation site (interned call chain id).
	Chain int32
	// Create is the allocation time.
	Create int64
	// LastUse is the last-use time; 0 means never used.
	LastUse int64
	// LastUseChain is the nested last-use site; -1 means never used.
	LastUseChain int32
	// LastUseKind is the kind of the last use.
	LastUseKind vm.UseKind
	// Uses counts uses over the object's lifetime.
	Uses int64
	// Collect is the reclamation time (the approximation of the moment
	// the object became unreachable), or the final clock for objects
	// alive at exit.
	Collect int64
	// AtExit marks objects still reachable at program termination.
	AtExit bool
	// Interned marks constant-pool objects, which the paper excludes
	// from reports.
	Interned bool
}

// Used reports whether the object was ever used.
func (r *Record) Used() bool { return r.LastUse != 0 }

// LastTouch is the last-use time, defaulting to the creation time for
// never-used objects (their entire lifetime is drag).
func (r *Record) LastTouch() int64 {
	if r.Used() {
		return r.LastUse
	}
	return r.Create
}

// DragTime is the reachable-but-not-in-use interval.
func (r *Record) DragTime() int64 {
	d := r.Collect - r.LastTouch()
	if d < 0 {
		return 0
	}
	return d
}

// Drag is the drag space-time product: size × drag time.
func (r *Record) Drag() int64 { return r.Size * r.DragTime() }

// InUseTime is the creation-to-last-use interval (0 when never used).
func (r *Record) InUseTime() int64 {
	if !r.Used() {
		return 0
	}
	d := r.LastUse - r.Create
	if d < 0 {
		return 0
	}
	return d
}

// LifeTime is the creation-to-collection interval.
func (r *Record) LifeTime() int64 {
	d := r.Collect - r.Create
	if d < 0 {
		return 0
	}
	return d
}

// Recorder implements vm.Listener and observes heap reclamation; it is the
// instrumented JVM's trailer machinery. It holds the allocation half of
// each live trailer; the use half lives in the object itself (heap.Object's
// LastUse, Uses, LastUseChain and LastUseKind), where the VM updates it in
// place, and is copied into the Record when the object is reclaimed or the
// program ends.
type Recorder struct {
	// live holds the trailer of each recorded object still in the heap,
	// indexed by its handle. Handles are dense and recycled, so live is
	// never longer than the heap's handle table; a recycled handle's stale
	// entry is told apart by its AllocID.
	live []*Record
	done []*Record
}

// NewRecorder returns an empty recorder. Run installs it as the VM's
// listener and the heap's free listener.
func NewRecorder() *Recorder { return &Recorder{} }

// lookup returns the live trailer of the object o behind h, or nil.
func (r *Recorder) lookup(h heap.Handle, o *heap.Object) *Record {
	if int(h) >= len(r.live) {
		return nil
	}
	rec := r.live[h]
	if rec == nil || rec.AllocID != o.AllocID {
		return nil
	}
	return rec
}

// Alloc implements vm.Listener.
func (r *Recorder) Alloc(h heap.Handle, o *heap.Object, site int32, chain int32, clock int64) {
	rec := &Record{
		AllocID:      o.AllocID,
		Class:        o.Class,
		Array:        o.Kind == heap.KindArray,
		Elem:         o.Elem,
		Size:         o.Size,
		Site:         site,
		Chain:        chain,
		Create:       clock,
		LastUseChain: -1,
		Interned:     o.Interned,
	}
	if int(h) >= len(r.live) {
		r.live = append(r.live, make([]*Record, int(h)+1-len(r.live))...)
	}
	r.live[h] = rec
}

// settle copies the use half of o's trailer into its record. A record
// whose object was never used keeps LastUse 0 and LastUseChain -1.
func settle(rec *Record, o *heap.Object) {
	// Interning may be flagged after allocation (string literals).
	rec.Interned = rec.Interned || o.Interned
	if o.Uses == 0 {
		return
	}
	rec.LastUse = o.LastUse
	rec.LastUseChain = o.LastUseChain
	rec.LastUseKind = vm.UseKind(o.LastUseKind)
	rec.Uses = o.Uses
}

// freeListener binds the heap clock so reclamation records carry the
// collection time.
func (r *Recorder) freeListener(clock func() int64) heap.FreeListener {
	return func(h heap.Handle, o *heap.Object) {
		rec := r.lookup(h, o)
		if rec == nil {
			return
		}
		r.live[h] = nil
		settle(rec, o)
		rec.Collect = clock()
		r.done = append(r.done, rec)
	}
}

// Finish logs every object still live in hp at termination with hp's final
// clock (the paper performs a final deep GC first, then logs survivors).
func (r *Recorder) Finish(hp *heap.Heap) {
	clock := hp.Clock()
	for h, rec := range r.live {
		if rec == nil {
			continue
		}
		if o := hp.Lookup(heap.Handle(h)); o != nil && o.AllocID == rec.AllocID {
			settle(rec, o)
		}
		rec.Collect = clock
		rec.AtExit = true
		r.done = append(r.done, rec)
	}
	r.live = nil
}

// Records returns the logged trailers in allocation order.
func (r *Recorder) Records() []*Record {
	out := make([]*Record, len(r.done))
	copy(out, r.done)
	// Allocation ids are unique, so the order is total.
	slices.SortFunc(out, func(a, b *Record) int { return cmp.Compare(a.AllocID, b.AllocID) })
	return out
}

// Profile is the self-contained phase-1 output: the trailer log plus the
// tables needed to render sites and chains without the live VM.
type Profile struct {
	// Name labels the profiled program (benchmark name, version, input).
	Name string
	// Records are the logged object trailers, allocation order.
	Records []*Record
	// Sites is the program's allocation-site table.
	Sites []bytecode.Site
	// ChainNodes is the interned chain table (index = chain id).
	ChainNodes []vm.ChainNode
	// MethodNames maps method id to qualified name.
	MethodNames []string
	// MethodFiles maps method id to the source file of its declaring
	// class; it drives anchor-site resolution (application vs library
	// code, paper Section 3.4).
	MethodFiles []string
	// ClassNames maps class id to name.
	ClassNames []string
	// FinalClock is the allocation clock at termination.
	FinalClock int64
	// GCInterval is the deep-GC trigger used during recording.
	GCInterval int64
	// SampleRate is the per-byte probability the recording VM's sampler
	// ran at; 0 or 1 means the profile is exact (every trailer present).
	// Logs written before sampling existed read back as rate 1. Analysis
	// divides each sampled record's contribution by its inclusion
	// probability 1-(1-SampleRate)^Size to recover unbiased estimates.
	SampleRate float64
}

// EffectiveSampleRate normalizes the rate: anything outside (0, 1) is the
// exact mode, reported as 1.
func (p *Profile) EffectiveSampleRate() float64 {
	if p.SampleRate <= 0 || p.SampleRate >= 1 {
		return 1
	}
	return p.SampleRate
}

// Sampled reports whether the profile was recorded under byte-weighted
// sampling (a strict subset of trailers, to be inverse-probability scaled).
func (p *Profile) Sampled() bool { return p.EffectiveSampleRate() != 1 }

// SiteDesc renders a site id.
func (p *Profile) SiteDesc(id int32) string {
	if id < 0 || int(id) >= len(p.Sites) {
		return "<none>"
	}
	return p.Sites[id].Desc
}

// ChainDesc renders a chain id as "A.f:12 > B.g:34", truncated to the
// innermost depth nodes (depth <= 0: unlimited).
func (p *Profile) ChainDesc(id int32, depth int) string {
	var nodes []vm.ChainNode
	for id >= 0 && int(id) < len(p.ChainNodes) {
		nodes = append(nodes, p.ChainNodes[id])
		id = p.ChainNodes[id].Parent
	}
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	if depth > 0 && len(nodes) > depth {
		nodes = nodes[len(nodes)-depth:]
	}
	s := ""
	for i, n := range nodes {
		if i > 0 {
			s += " > "
		}
		s += p.methodName(n.Method) + ":" + itoa(n.Line)
	}
	if s == "" {
		return "<top>"
	}
	return s
}

// ChainSuffixKey returns a canonical comparable key for the innermost depth
// nodes of a chain, used to group records by nested allocation site at a
// configurable nesting level.
func (p *Profile) ChainSuffixKey(id int32, depth int) string {
	var nodes []vm.ChainNode
	for id >= 0 && int(id) < len(p.ChainNodes) {
		nodes = append(nodes, p.ChainNodes[id])
		id = p.ChainNodes[id].Parent
	}
	if depth > 0 && len(nodes) > depth {
		nodes = nodes[:depth] // nodes are innermost-first here
	}
	key := ""
	for _, n := range nodes {
		key += itoa(n.Method) + ":" + itoa(n.Line) + ";"
	}
	return key
}

func (p *Profile) methodName(id int32) string {
	if id < 0 || int(id) >= len(p.MethodNames) {
		return "vm:<runtime>"
	}
	return p.MethodNames[id]
}

// MethodFile returns the source file declaring the method ("" if unknown).
func (p *Profile) MethodFile(id int32) string {
	if id < 0 || int(id) >= len(p.MethodFiles) {
		return ""
	}
	return p.MethodFiles[id]
}

func itoa(v int32) string { return strconv.Itoa(int(v)) }
