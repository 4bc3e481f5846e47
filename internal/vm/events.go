// Package vm implements the dragprof virtual machine: a stack-machine
// interpreter over the managed heap that raises the profiling events the
// paper's instrumented JVM raises — object creation with its nested
// allocation site, and object use on getfield, putfield, method invocation,
// monitor entry/exit, array access and native handle dereference.
package vm

import (
	"fmt"

	"dragprof/internal/bytecode"
	"dragprof/internal/heap"
)

// UseKind classifies the event that used an object, mirroring the five use
// categories of Section 2.1.1.
type UseKind uint8

// Use kinds.
const (
	// UseGetField is a field read.
	UseGetField UseKind = iota
	// UsePutField is a field write.
	UsePutField
	// UseInvoke is a method invocation on the object.
	UseInvoke
	// UseMonitor is monitor entry or exit.
	UseMonitor
	// UseArray is an array element load/store or length query.
	UseArray
	// UseNative is a handle dereference by native (builtin) code.
	UseNative
)

// String returns a short name for the use kind.
func (k UseKind) String() string {
	switch k {
	case UseGetField:
		return "getfield"
	case UsePutField:
		return "putfield"
	case UseInvoke:
		return "invoke"
	case UseMonitor:
		return "monitor"
	case UseArray:
		return "array"
	case UseNative:
		return "native"
	}
	return "use?"
}

// Listener observes allocation events. The profiler implements it; a nil
// listener disables profiling entirely. Uses raise no event: the VM writes
// each use of an observed object into the object's own trailer fields
// (heap.Object's LastUse, Uses, LastUseChain and LastUseKind), which the
// listener reads when the object is reclaimed.
type Listener interface {
	// Alloc reports a new object. site is the static allocation site,
	// chain the interned nested allocation site (call chain), clock the
	// allocation clock in bytes after this allocation.
	Alloc(h heap.Handle, o *heap.Object, site int32, chain int32, clock int64)
}

// ChainNode is one element of an interned call-site chain: the parent chain
// plus the (method, line) program point. Chain id -1 is the empty chain.
type ChainNode struct {
	Parent int32
	Method int32
	Line   int32
}

// ChainTable interns call-site chains as a trie, so a chain is identified by
// a single int32. The VM extends the current frame's chain by one node per
// call, allocation, or use event.
//
// Ids are dense and assigned in first-seen order; the index is an
// open-addressed table probed linearly, so a hit costs one integer mix and
// a compare, and only a new node appends.
type ChainTable struct {
	nodes []ChainNode
	// slots holds id+1 per occupied slot, 0 when empty. Its length is a
	// power of two at least twice len(nodes).
	slots []int32
}

// chainMinSlots is the index size of an empty table.
const chainMinSlots = 64

// NewChainTable returns an empty chain table.
func NewChainTable() *ChainTable {
	return &ChainTable{slots: make([]int32, chainMinSlots)}
}

// chainHash mixes a node's three fields into a slot hash (the 64-bit
// finalizer of MurmurHash3 over the packed key).
func chainHash(parent, method, line int32) uint64 {
	k := uint64(uint32(parent)) | uint64(uint32(method))<<32
	k ^= uint64(uint32(line)) * 0x9E3779B97F4A7C15
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Intern returns the id of parent extended with (method, line).
func (t *ChainTable) Intern(parent, method, line int32) int32 {
	mask := uint64(len(t.slots) - 1)
	for i := chainHash(parent, method, line) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			id := int32(len(t.nodes))
			t.nodes = append(t.nodes, ChainNode{Parent: parent, Method: method, Line: line})
			t.slots[i] = id + 1
			if 2*len(t.nodes) > len(t.slots) {
				t.grow()
			}
			return id
		}
		if n := &t.nodes[s-1]; n.Parent == parent && n.Method == method && n.Line == line {
			return s - 1
		}
	}
}

// grow doubles the index and reinserts every node.
func (t *ChainTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for id, n := range t.nodes {
		i := chainHash(n.Parent, n.Method, n.Line) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id) + 1
	}
}

// Node returns the chain node for id.
func (t *ChainTable) Node(id int32) ChainNode { return t.nodes[id] }

// Nodes returns the interned nodes, indexed by chain id. The slice is
// shared; callers must not mutate it.
func (t *ChainTable) Nodes() []ChainNode { return t.nodes }

// Len returns the number of interned nodes.
func (t *ChainTable) Len() int { return len(t.nodes) }

// Expand returns the chain as (method, line) pairs from outermost call to
// the innermost program point. id -1 yields nil.
func (t *ChainTable) Expand(id int32) []ChainNode {
	var rev []ChainNode
	for id >= 0 {
		n := t.nodes[id]
		rev = append(rev, n)
		id = n.Parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Describe renders a chain as "A.f:12 > B.g:34", innermost last, truncated
// to at most depth innermost nodes (depth <= 0 means unlimited).
func (t *ChainTable) Describe(p *bytecode.Program, id int32, depth int) string {
	nodes := t.Expand(id)
	if depth > 0 && len(nodes) > depth {
		nodes = nodes[len(nodes)-depth:]
	}
	s := ""
	for i, n := range nodes {
		if i > 0 {
			s += " > "
		}
		s += fmt.Sprintf("%s:%d", methodQName(p, n.Method), n.Line)
	}
	if s == "" {
		return "<top>"
	}
	return s
}

func methodQName(p *bytecode.Program, id int32) string {
	if id < 0 || int(id) >= len(p.Methods) {
		return "vm:<runtime>"
	}
	m := p.Methods[id]
	if m.Class >= 0 {
		return p.Classes[m.Class].Name + "." + m.Name
	}
	return m.Name
}

// Suffix returns the id of the chain formed by the innermost depth nodes of
// chain id — the "level of nesting" knob of Section 2.1.1. depth <= 0
// returns id unchanged.
func (t *ChainTable) Suffix(id int32, depth int) int32 {
	if depth <= 0 || id < 0 {
		return id
	}
	nodes := t.Expand(id)
	if len(nodes) <= depth {
		return id
	}
	nodes = nodes[len(nodes)-depth:]
	out := int32(-1)
	for _, n := range nodes {
		out = t.Intern(out, n.Method, n.Line)
	}
	return out
}
