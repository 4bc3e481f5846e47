// Package drag implements phase 2 of the paper's tool: the offline analyzer
// that reads the trailer log, computes each object's drag (size × the time
// it is reachable but not in use), partitions dragged objects by nested
// allocation site and by last-use site, isolates never-used objects, and
// classifies each site against the lifetime patterns of Section 3.4 to
// suggest a rewriting strategy.
//
// Analyze is the serial reference. Every other analysis — of an in-memory
// profile (Fold, AnalyzeParallel) or of a streamed log (FoldLog,
// AnalyzeLog), in draganalyze, the library or the run store — runs through
// one worker pool whose per-part Accumulators merge in record order, so
// each is byte-identical to Analyze.
package drag

import (
	"fmt"
	"math"
	"sort"

	"dragprof/internal/profile"
	"dragprof/internal/xrand"
)

// Options tune the analysis.
type Options struct {
	// NestDepth limits nested-allocation-site chains to the innermost N
	// call sites (the paper's "level of nesting" knob). Default 4.
	NestDepth int
	// NeverUsedWindow treats objects whose in-use time is at most this
	// many bytes as never used ("the only use of an object may be in its
	// constructor and its in-use time is very short; we also consider
	// these as objects that were never used", Section 3.4). Defaults to
	// the profile's GC interval.
	NeverUsedWindow int64
	// MostlyThreshold is the never-used fraction above which a site is
	// classified as the lazy-allocation pattern (default 0.9; the
	// paper's jack sites are ">97%").
	MostlyThreshold float64
	// LargeDragFactor: a dragged object has "large drag" when its drag
	// time exceeds LargeDragFactor × NeverUsedWindow (default 2).
	LargeDragFactor int64
	// TopLastUse keeps the top-N last-use-site partitions per group
	// (default 3).
	TopLastUse int
}

func (o Options) withDefaults(p *profile.Profile) Options {
	if o.NestDepth == 0 {
		o.NestDepth = 4
	}
	if o.NeverUsedWindow == 0 {
		if p != nil {
			o.NeverUsedWindow = p.GCInterval
		}
		if o.NeverUsedWindow == 0 {
			o.NeverUsedWindow = profile.DefaultGCInterval
		}
	}
	if o.MostlyThreshold == 0 {
		o.MostlyThreshold = 0.9
	}
	if o.LargeDragFactor == 0 {
		o.LargeDragFactor = 2
	}
	if o.TopLastUse == 0 {
		o.TopLastUse = 3
	}
	return o
}

// Pattern is a lifetime pattern from Section 3.4, each suggesting a
// rewriting strategy.
type Pattern int

// Lifetime patterns.
const (
	// PatternNone: no dominant pattern; no clear transformation.
	PatternNone Pattern = iota
	// PatternDeadCode: all objects at the site are never used; dead code
	// removal applies.
	PatternDeadCode
	// PatternLazyAlloc: most objects are never used; lazy allocation
	// applies.
	PatternLazyAlloc
	// PatternAssignNull: most dragged objects have a large drag;
	// assigning null to the dead reference applies.
	PatternAssignNull
	// PatternHighVariance: drag variance is high; likely no
	// transformation helps (e.g. the db repository).
	PatternHighVariance
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternDeadCode:
		return "all-never-used (dead code removal)"
	case PatternLazyAlloc:
		return "mostly-never-used (lazy allocation)"
	case PatternAssignNull:
		return "large-drag (assign null)"
	case PatternHighVariance:
		return "high-variance (no transformation)"
	default:
		return "none"
	}
}

// ParsePattern is the inverse of Pattern.String: it turns a rendered
// pattern, as dragserved serves it in a site summary, back into a Pattern.
func ParsePattern(s string) (Pattern, error) {
	for p := PatternNone; p <= PatternHighVariance; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return PatternNone, fmt.Errorf("drag: unknown pattern %q", s)
}

// Suggestion is the rewriting strategy the pattern suggests, phrased for
// reports.
func (p Pattern) Suggestion() string {
	switch p {
	case PatternDeadCode:
		return "remove the allocation (dead code)"
	case PatternLazyAlloc:
		return "allocate lazily behind a null test"
	case PatternAssignNull:
		return "assign null to the dead reference after its last use"
	case PatternHighVariance:
		return "no transformation likely to help (unpredictable uses)"
	default:
		return "inspect manually"
	}
}

// PairGroup is a (group, last-use site) partition.
type PairGroup struct {
	// LastUseDesc renders the nested last-use site ("<never used>" for
	// the never-used partition).
	LastUseDesc string
	Count       int
	Drag        int64
}

// Group aggregates the dragged objects of one allocation site (coarse) or
// one nested allocation site (fine).
type Group struct {
	// Key is the canonical grouping key.
	Key string
	// SiteID is the allocation site for coarse (per-site) groups; -1 for
	// nested-site groups.
	SiteID int32
	// Desc is the printable site description.
	Desc string
	// Count is the number of objects allocated at the site.
	Count int
	// NeverUsed counts objects with no (or constructor-only) uses.
	NeverUsed int
	// Bytes is the total bytes allocated at the site.
	Bytes int64
	// Drag is the summed drag space-time product (byte²).
	Drag int64
	// NeverUsedDrag is the drag contributed by never-used objects.
	NeverUsedDrag int64
	// InUse is the summed in-use space-time product (byte²).
	InUse int64
	// MeanDragTime and StdDragTime describe the drag-time distribution.
	MeanDragTime float64
	StdDragTime  float64
	// Pattern is the classified lifetime pattern.
	Pattern Pattern
	// DragHist and InUseHist partition the group's objects by drag time
	// and in-use time in power-of-two multiples of the never-used window
	// (the Section 3.4 anchor-site breakdown).
	DragHist  Histogram
	InUseHist Histogram
	// LastUse is the top last-use-site partition for the group.
	LastUse []PairGroup

	// The Est* fields are populated only for sampled profiles: each
	// sampled record's contribution is divided by its inclusion
	// probability π = 1-(1-rate)^size (Horvitz-Thompson), so they are
	// unbiased estimates of what the exact-mode Count/Bytes/Drag would
	// have been. EstDragCI is the half-width of the 95% confidence
	// interval around EstDrag (1.96·√Σ(1-π)(drag/π)²). Exact reports
	// leave all four at zero and use the raw integer tallies.
	EstCount  float64
	EstBytes  float64
	EstDrag   float64
	EstDragCI float64
	// estVar is the group's raw variance sum Σ(1-π)(w·drag)²; the report
	// totals fold it across groups in sorted order (deterministically).
	estVar float64
	// moments are the exact drag-time moments (nested-site groups only),
	// which Report.Summary hands on.
	moments Moments
}

// NeverUsedFraction is the fraction of the site's objects never used.
func (g *Group) NeverUsedFraction() float64 {
	if g.Count == 0 {
		return 0
	}
	return float64(g.NeverUsed) / float64(g.Count)
}

// Report is the analyzer's output.
type Report struct {
	// Name labels the profiled program.
	Name string
	// FinalClock is total allocation in bytes.
	FinalClock int64
	// TotalObjects and TotalBytes cover reported (non-interned) objects.
	TotalObjects int
	TotalBytes   int64
	// ReachableIntegral is Σ size × (collect − create) in byte².
	ReachableIntegral int64
	// InUseIntegral is Σ size × (lastUse − create) in byte².
	InUseIntegral int64
	// TotalDrag is Σ size × dragTime = Reachable − InUse (up to the
	// never-used convention) in byte².
	TotalDrag int64
	// NeverUsedObjects counts never-used objects program-wide.
	NeverUsedObjects int
	// NeverUsedDrag is their contribution to TotalDrag.
	NeverUsedDrag int64
	// BySite groups by coarse allocation site, sorted by drag.
	BySite []*Group
	// ByNestedSite groups by nested allocation site at Options.NestDepth,
	// sorted by drag.
	ByNestedSite []*Group
	// Options echoes the effective analysis options.
	Options Options

	// SampleRate is the profile's effective per-byte sampling rate (1 for
	// exact profiles). When it is below 1 the integer tallies above cover
	// only the sampled subset and the Est* fields carry the scaled,
	// unbiased estimates of the full-run quantities.
	SampleRate float64
	// EstTotalObjects/EstTotalBytes/EstTotalDrag are the Horvitz-Thompson
	// estimates of the exact-mode totals; EstTotalDragCI is the 95%
	// confidence half-width on EstTotalDrag. Zero for exact reports.
	EstTotalObjects float64
	EstTotalBytes   float64
	EstTotalDrag    float64
	EstTotalDragCI  float64

	// sites is the profile's site-table size, part of Summary's Shape.
	sites int
}

// Sampled reports whether the report was computed from a sampled profile.
func (r *Report) Sampled() bool { return r.SampleRate > 0 && r.SampleRate < 1 }

// MB2 converts a byte² integral to MByte² (the paper's Table 2 unit).
func MB2(v int64) float64 { return float64(v) / (1 << 40) }

// Analyze runs the phase-2 analysis over a profile serially: the
// reference every other pipeline is held byte-identical to.
func Analyze(p *profile.Profile, opts Options) *Report {
	a := NewAccumulator(p, opts)
	for _, r := range p.Records {
		a.Add(r)
	}
	return a.Report()
}

// Accumulator is the phase-2 accumulation state and the unit of mergeable
// drag state. Analyze feeds every record into one accumulator; the worker
// pool (parallel.go) builds one per record part and merges them in part
// order, which keeps every per-group sequence (and hence every
// floating-point reduction) byte-identical to the serial pass. The run
// store's compactor and draganalyze's multi-log mode merge whole runs the
// same way; CheckMergeable states which runs may.
//
// The record path works on integers: a coarse group is found by site id,
// and a nested-site group or last-use partition by the suffix index its
// chain has in the accumulator's key table. Strings are rendered only when
// the accumulator first meets a chain, or creates a group or a partition.
// Accumulators over different tables (other blocks, other runs) merge by
// canonical key, once per group and partition, never per record.
type Accumulator struct {
	p    *profile.Profile
	opts Options
	rep  Report
	keys keyTable
	// chainKey maps a chain id to its suffix index + 1 (0: not met yet);
	// the last slot stands for every id outside the chain table.
	chainKey []int32
	// coarse holds the per-site groups by site id; site ids outside the
	// profile's site table (damaged logs only) go in coarseOther.
	coarse      []*groupAcc
	coarseOther map[int32]*groupAcc
	// fine holds the nested-site groups by suffix index.
	fine []*groupAcc
	// rate is the profile's effective sampling rate; sampled gates the
	// Horvitz-Thompson estimate machinery (exact runs pay nothing for it).
	rate    float64
	sampled bool
}

// NewAccumulator returns an empty accumulator over p's tables. opts are
// resolved against p's defaults immediately, so accumulators that will be
// merged must be built with the same effective options.
func NewAccumulator(p *profile.Profile, opts Options) *Accumulator {
	rate := p.EffectiveSampleRate()
	return &Accumulator{
		p:       p,
		opts:    opts.withDefaults(p),
		keys:    newKeyTable(),
		rate:    rate,
		sampled: rate != 1,
	}
}

// neverUsedDesc keys and describes the never-used last-use partition.
const neverUsedDesc = "<never used>"

// keyTable interns canonical chain-suffix keys (profile.ChainSuffixKey)
// with their descriptions. Index 0 is the never-used partition, whose key
// no chain suffix can take.
type keyTable struct {
	index map[string]int32
	keys  []string
	descs []string
}

func newKeyTable() keyTable {
	return keyTable{
		index: map[string]int32{neverUsedDesc: 0},
		keys:  []string{neverUsedDesc},
		descs: []string{neverUsedDesc},
	}
}

func (t *keyTable) add(key, desc string) int32 {
	k := int32(len(t.keys))
	t.index[key] = k
	t.keys = append(t.keys, key)
	t.descs = append(t.descs, desc)
	return k
}

// from returns the index in t of entry k of another table.
func (t *keyTable) from(o *keyTable, k int32) int32 {
	if i, ok := t.index[o.keys[k]]; ok {
		return i
	}
	return t.add(o.keys[k], o.descs[k])
}

// suffix returns the suffix index of a chain at the analysis depth,
// rendering its key (and, for a new key, its description) only the first
// time the accumulator meets the chain.
func (a *Accumulator) suffix(chain int32) int32 {
	n := len(a.p.ChainNodes)
	slot := n
	if chain >= 0 && int(chain) < n {
		slot = int(chain)
	}
	if a.chainKey == nil {
		a.chainKey = make([]int32, n+1)
	}
	if k := a.chainKey[slot]; k > 0 {
		return k - 1
	}
	depth := a.opts.NestDepth
	key := a.p.ChainSuffixKey(chain, depth)
	k, ok := a.keys.index[key]
	if !ok {
		k = a.keys.add(key, a.p.ChainDesc(chain, depth))
	}
	a.chainKey[slot] = k + 1
	return k
}

func (a *Accumulator) coarseGet(site int32) *groupAcc {
	if site >= 0 && int(site) < len(a.coarse) {
		return a.coarse[site]
	}
	return a.coarseOther[site]
}

func (a *Accumulator) coarsePut(site int32, g *groupAcc) {
	if n := len(a.p.Sites); site >= 0 && int(site) < n {
		if a.coarse == nil {
			a.coarse = make([]*groupAcc, n)
		}
		a.coarse[site] = g
		return
	}
	if a.coarseOther == nil {
		a.coarseOther = make(map[int32]*groupAcc)
	}
	a.coarseOther[site] = g
}

func (a *Accumulator) fineGet(k int32) *groupAcc {
	if int(k) < len(a.fine) {
		return a.fine[k]
	}
	return nil
}

func (a *Accumulator) finePut(k int32, g *groupAcc) {
	for int(k) >= len(a.fine) {
		a.fine = append(a.fine, nil)
	}
	a.fine[k] = g
}

// neverUsed applies the Section 3.4 convention: an object with no uses,
// or with uses only inside the never-used window, was never used.
func (o Options) neverUsed(r *profile.Record) bool {
	return !r.Used() || r.InUseTime() <= o.NeverUsedWindow
}

// Add accumulates one trailer record. Interned records are excluded from
// reports (profile.Reported's filter, applied inline so streams need no
// materialized slice).
func (a *Accumulator) Add(r *profile.Record) {
	if r.Interned {
		return
	}
	a.rep.TotalObjects++
	a.rep.TotalBytes += r.Size
	a.rep.ReachableIntegral += r.Size * r.LifeTime()
	a.rep.InUseIntegral += r.Size * r.InUseTime()
	a.rep.TotalDrag += r.Drag()
	nu := a.opts.neverUsed(r)
	if nu {
		a.rep.NeverUsedObjects++
		a.rep.NeverUsedDrag += r.Drag()
	}

	var est *estSample
	if a.sampled {
		// Horvitz-Thompson weight: this record stands in for 1/π objects
		// of its site, where π is its byte-weighted inclusion probability.
		pi := xrand.Inclusion(a.rate, r.Size)
		if pi <= 0 {
			// Degenerate record sizes (possible only in hand-crafted or
			// damaged logs) count as certainly-included.
			pi = 1
		}
		est = &estSample{
			pi:   pi,
			w:    1 / pi,
			size: float64(r.Size),
			drag: float64(r.Drag()),
		}
	}
	lu := int32(0) // the never-used partition
	if r.Used() {
		lu = a.suffix(r.LastUseChain)
	}
	window := a.opts.NeverUsedWindow

	cg := a.coarseGet(r.Site)
	if cg == nil {
		cg = newGroupAcc("site:"+itoa(r.Site), r.Site, a.p.SiteDesc(r.Site))
		a.coarsePut(r.Site, cg)
	}
	accumulate(cg, r, nu, est, window)
	a.partition(cg, lu).add(r)

	fk := a.suffix(r.Chain)
	fg := a.fineGet(fk)
	if fg == nil {
		fg = newGroupAcc("chain:"+a.keys.keys[fk], -1, a.keys.descs[fk])
		a.finePut(fk, fg)
	}
	accumulate(fg, r, nu, est, window)
	a.partition(fg, lu).add(r)
}

// partition returns g's last-use partition for suffix index lu.
func (a *Accumulator) partition(g *groupAcc, lu int32) *PairGroup {
	pg, ok := g.lastUse[lu]
	if !ok {
		pg = &PairGroup{LastUseDesc: a.keys.descs[lu]}
		g.lastUse[lu] = pg
	}
	return pg
}

func (pg *PairGroup) add(r *profile.Record) {
	pg.Count++
	pg.Drag += r.Drag()
}

// Merge folds b into a. b must cover records that follow a's in record
// order (later blocks of the same run, or later runs in a deterministic
// run order); the ordered append keeps every per-group floating-point
// reduction byte-identical to a serial pass over the concatenated records.
// b must not be used afterwards.
func (a *Accumulator) Merge(b *Accumulator) {
	a.rep.TotalObjects += b.rep.TotalObjects
	a.rep.TotalBytes += b.rep.TotalBytes
	a.rep.ReachableIntegral += b.rep.ReachableIntegral
	a.rep.InUseIntegral += b.rep.InUseIntegral
	a.rep.TotalDrag += b.rep.TotalDrag
	a.rep.NeverUsedObjects += b.rep.NeverUsedObjects
	a.rep.NeverUsedDrag += b.rep.NeverUsedDrag
	for site, g := range b.coarse {
		if g != nil {
			a.coarsePut(int32(site), a.mergeGroup(a.coarseGet(int32(site)), g, b))
		}
	}
	for site, g := range b.coarseOther {
		a.coarsePut(site, a.mergeGroup(a.coarseGet(site), g, b))
	}
	for k, g := range b.fine {
		if g != nil {
			dk := a.keys.from(&b.keys, int32(k))
			a.finePut(dk, a.mergeGroup(a.fineGet(dk), g, b))
		}
	}
}

// mergeGroup folds src, a group of b, into dst and returns dst; when a has
// no such group (dst nil) it adopts src. Last-use partitions are matched
// by canonical key. Iteration order does not matter: every reduction is
// either integer (commutative) or an ordered slice append, and src's
// records follow dst's.
func (a *Accumulator) mergeGroup(dst, src *groupAcc, b *Accumulator) *groupAcc {
	if dst == nil {
		parts := src.lastUse
		src.lastUse = make(map[int32]*PairGroup, len(parts))
		for k, pg := range parts {
			src.lastUse[a.keys.from(&b.keys, k)] = pg
		}
		return src
	}
	dst.g.Count += src.g.Count
	dst.g.NeverUsed += src.g.NeverUsed
	dst.g.Bytes += src.g.Bytes
	dst.g.Drag += src.g.Drag
	dst.g.NeverUsedDrag += src.g.NeverUsedDrag
	dst.g.InUse += src.g.InUse
	dst.dragTimes = append(dst.dragTimes, src.dragTimes...)
	dst.samples = append(dst.samples, src.samples...)
	for i := range src.g.DragHist {
		dst.g.DragHist[i] += src.g.DragHist[i]
		dst.g.InUseHist[i] += src.g.InUseHist[i]
	}
	for k, spg := range src.lastUse {
		dk := a.keys.from(&b.keys, k)
		dpg, ok := dst.lastUse[dk]
		if !ok {
			dst.lastUse[dk] = spg
			continue
		}
		dpg.Count += spg.Count
		dpg.Drag += spg.Drag
	}
	return dst
}

// Report finalizes the accumulated state. The receiver must not be used
// afterwards.
func (a *Accumulator) Report() *Report {
	rep := a.rep
	rep.Name = a.p.Name
	rep.FinalClock = a.p.FinalClock
	rep.Options = a.opts
	rep.SampleRate = a.rate
	rep.sites = len(a.p.Sites)
	coarse := nonNil(a.coarse)
	for _, g := range a.coarseOther {
		coarse = append(coarse, g)
	}
	var tot estTotals
	rep.BySite, tot = finalize(coarse, a.opts, a.sampled, false)
	rep.ByNestedSite, _ = finalize(nonNil(a.fine), a.opts, a.sampled, true)
	if a.sampled {
		// Every reported record lands in exactly one coarse group, so the
		// coarse totals are the program-wide estimates; summing per-group
		// variances recovers the full Σ(1-π)(w·drag)² over records.
		rep.EstTotalObjects = tot.count
		rep.EstTotalBytes = tot.bytes
		rep.EstTotalDrag = tot.drag
		rep.EstTotalDragCI = ci95(tot.varSum)
	}
	return &rep
}

func nonNil(gs []*groupAcc) []*groupAcc {
	out := make([]*groupAcc, 0, len(gs))
	for _, g := range gs {
		if g != nil {
			out = append(out, g)
		}
	}
	return out
}

// estSample is one sampled record's Horvitz-Thompson terms. The slices of
// these are kept in record order (appends in add, ordered appends in merge)
// so the floating-point reductions in finalize are byte-identical between
// the serial and parallel pipelines, exactly like dragTimes.
type estSample struct {
	pi   float64 // inclusion probability 1-(1-rate)^size
	w    float64 // 1/pi
	size float64
	drag float64
}

type groupAcc struct {
	g         Group
	dragTimes []float64
	samples   []estSample // sampled profiles only; record order
	// lastUse holds the last-use partitions by suffix index in the owning
	// accumulator's key table.
	lastUse map[int32]*PairGroup
}

func newGroupAcc(key string, siteID int32, desc string) *groupAcc {
	return &groupAcc{
		g:       Group{Key: key, SiteID: siteID, Desc: desc},
		lastUse: make(map[int32]*PairGroup),
	}
}

// accumulate folds one record into a group: the integer sums, the
// record-ordered drag-time sequence, the lifetime histograms and, for
// sampled profiles (est non-nil), the record's Horvitz-Thompson terms.
func accumulate(acc *groupAcc, r *profile.Record, neverUsed bool, est *estSample, window int64) {
	if est != nil {
		acc.samples = append(acc.samples, *est)
	}
	g := &acc.g
	g.Count++
	g.Bytes += r.Size
	g.Drag += r.Drag()
	g.InUse += r.Size * r.InUseTime()
	if neverUsed {
		g.NeverUsed++
		g.NeverUsedDrag += r.Drag()
	}
	if r.DragTime() > 0 {
		acc.dragTimes = append(acc.dragTimes, float64(r.DragTime()))
	}
	g.DragHist.Add(r.DragTime(), window)
	g.InUseHist.Add(r.InUseTime(), window)
}

// estTotals accumulates the groups' Horvitz-Thompson sums.
type estTotals struct {
	count, bytes, drag, varSum float64
}

// ci95 is the 95% confidence half-width for a variance estimate.
func ci95(varSum float64) float64 { return 1.96 * math.Sqrt(varSum) }

// finalize turns group accumulators into sorted groups; moments asks for
// each group's exact drag-time moments too.
func finalize(accs []*groupAcc, opts Options, sampled, moments bool) ([]*Group, estTotals) {
	var tot estTotals
	out := make([]*Group, 0, len(accs))
	for _, acc := range accs {
		g := &acc.g
		g.MeanDragTime, g.StdDragTime = meanStd(acc.dragTimes)
		if moments {
			// Drag times are integers below 2^53, so each float64 in
			// dragTimes converts back exactly.
			for _, x := range acc.dragTimes {
				g.moments.add(int64(x))
			}
		}
		g.Pattern = classify(g, opts)
		if sampled {
			// Left-to-right over the record-ordered sample slice: the
			// reduction order, and hence every bit of the result, matches
			// the serial pass regardless of parallel chunking.
			var count, bytes, drag, varSum float64
			for _, s := range acc.samples {
				ed := s.w * s.drag
				count += s.w
				bytes += s.w * s.size
				drag += ed
				varSum += (1 - s.pi) * ed * ed
			}
			g.EstCount, g.EstBytes = count, bytes
			g.EstDrag, g.EstDragCI = drag, ci95(varSum)
			g.estVar = varSum
		}
		if len(acc.lastUse) > 0 {
			pairs := make([]PairGroup, 0, len(acc.lastUse))
			for _, pg := range acc.lastUse {
				pairs = append(pairs, *pg)
			}
			sort.Slice(pairs, func(i, j int) bool {
				if pairs[i].Drag != pairs[j].Drag {
					return pairs[i].Drag > pairs[j].Drag
				}
				return pairs[i].LastUseDesc < pairs[j].LastUseDesc
			})
			if len(pairs) > opts.TopLastUse {
				pairs = pairs[:opts.TopLastUse]
			}
			g.LastUse = pairs
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if sampled {
			// Sampled reports rank by the scaled estimate: that is the
			// quantity comparable with (and converging to) the exact
			// ranking as the rate rises.
			if out[i].EstDrag != out[j].EstDrag {
				return out[i].EstDrag > out[j].EstDrag
			}
		}
		if out[i].Drag != out[j].Drag {
			return out[i].Drag > out[j].Drag
		}
		return out[i].Desc < out[j].Desc
	})
	if sampled {
		// Totals fold over the sorted groups, not the map, so the
		// floating-point order is deterministic.
		for _, g := range out {
			tot.count += g.EstCount
			tot.bytes += g.EstBytes
			tot.drag += g.EstDrag
			tot.varSum += g.estVar
		}
	}
	return out, tot
}

// classify applies the Section 3.4 decision rules to a finalized group.
func classify(g *Group, opts Options) Pattern {
	return classifyWith(g, g.MeanDragTime > 0 && g.StdDragTime/g.MeanDragTime > 1.0, opts)
}

// classifyWith applies the Section 3.4 decision rules given g's integer
// totals, its mean drag time and whether the coefficient of variation of
// its drag times exceeds 1.
func classifyWith(g *Group, highVariance bool, opts Options) Pattern {
	if g.Count == 0 || g.Drag == 0 {
		return PatternNone
	}
	frac := g.NeverUsedFraction()
	switch {
	case frac == 1:
		return PatternDeadCode
	case frac >= opts.MostlyThreshold:
		return PatternLazyAlloc
	}
	// Coefficient of variation of drag time distinguishes "most objects
	// drag long" from "a few outliers drag".
	if g.MeanDragTime > 0 {
		if highVariance {
			return PatternHighVariance
		}
		if g.MeanDragTime >= float64(opts.LargeDragFactor*opts.NeverUsedWindow) {
			return PatternAssignNull
		}
	}
	return PatternNone
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) == 1 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}

func itoa(v int32) string {
	// Minimal local formatting to avoid fmt on a hot path.
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string([]byte{byte('0' + v)})
	}
	return itoa(v/10) + string([]byte{byte('0' + v%10)})
}
