package drag

import (
	"strings"

	"dragprof/internal/profile"
)

// Anchor-site resolution (paper Section 3.4): the innermost frame of a
// nested allocation site is often inside library code (the paper's example
// is the character array inside java.util.String); the programmer instead
// wants the first place *in application code* where a reference to the
// allocated object is stored — the anchor allocation site. We approximate
// it as the innermost call-chain node whose method lives in an application
// source file.

// IsLibraryFile is the default split between library and application code:
// the synthetic stdlib and the collections library are libraries.
func IsLibraryFile(file string) bool {
	return file == "" || file == "<stdlib>" || strings.Contains(file, "collections")
}

// AnchorNode resolves a chain to its anchor (method, line) program point.
// isLib may be nil (defaults to IsLibraryFile). When the whole chain is
// library code, the outermost node is returned; ok is false for empty
// chains.
func AnchorNode(p *profile.Profile, chain int32, isLib func(string) bool) (method, line int32, ok bool) {
	if isLib == nil {
		isLib = IsLibraryFile
	}
	// Walk innermost to outermost: ChainNodes link child -> parent.
	id := chain
	var fallback *[2]int32
	for id >= 0 && int(id) < len(p.ChainNodes) {
		n := p.ChainNodes[id]
		cur := [2]int32{n.Method, n.Line}
		fallback = &cur
		if !isLib(p.MethodFile(n.Method)) {
			return n.Method, n.Line, true
		}
		id = n.Parent
	}
	if fallback != nil {
		return fallback[0], fallback[1], true
	}
	return -1, -1, false
}

// AnchorGroups partitions records by anchor allocation site and returns
// the groups sorted by drag, with lifetime histograms attached — the
// "second step" breakdown of Section 3.4 (drag time, in-use time and
// collection time distributions at the anchor site). Each group folds its
// records through the analyzer's accumulate and finalize.
func AnchorGroups(p *profile.Profile, opts Options) []*Group {
	opts = opts.withDefaults(p)
	type key struct{ method, line int32 }
	accs := make(map[key]*groupAcc)
	for _, r := range p.Reported() {
		m, l, ok := AnchorNode(p, r.Chain, nil)
		if !ok {
			continue
		}
		k := key{m, l}
		acc, exists := accs[k]
		if !exists {
			desc := p.ChainDesc(chainOfNode(p, m, l, r.Chain), 1)
			acc = &groupAcc{g: Group{Key: "anchor:" + itoa(m) + ":" + itoa(l), SiteID: -1, Desc: desc}}
			accs[k] = acc
		}
		accumulate(acc, r, opts.neverUsed(r), nil, opts.NeverUsedWindow)
	}
	groups := make([]*groupAcc, 0, len(accs))
	for _, acc := range accs {
		groups = append(groups, acc)
	}
	out, _ := finalize(groups, opts, false, false)
	return out
}

// chainOfNode finds the chain id within r's chain whose node is (m, l), so
// the anchor description renders with the right method name; falls back to
// the original chain.
func chainOfNode(p *profile.Profile, m, l int32, chain int32) int32 {
	id := chain
	for id >= 0 && int(id) < len(p.ChainNodes) {
		n := p.ChainNodes[id]
		if n.Method == m && n.Line == l {
			return id
		}
		id = n.Parent
	}
	return chain
}

// Histogram buckets a byte-time interval into powers of two of the
// never-used window: bucket i counts values in [w·2^(i-1), w·2^i) with
// bucket 0 holding [0, w) and the last bucket open-ended.
type Histogram [8]int

// Add records one interval.
func (h *Histogram) Add(v int64, window int64) {
	if window <= 0 {
		window = 1
	}
	b := 0
	for limit := window; b < len(h)-1 && v >= limit; b++ {
		limit *= 2
	}
	h[b]++
}

// Total returns the number of recorded values.
func (h *Histogram) Total() int {
	n := 0
	for _, c := range h {
		n += c
	}
	return n
}

// String renders the bucket counts compactly.
func (h *Histogram) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, c := range h {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(itoa(int32(c)))
	}
	b.WriteByte(']')
	return b.String()
}
