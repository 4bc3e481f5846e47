package drag

import (
	"errors"
	"fmt"
	"sort"

	"dragprof/internal/profile"
)

// Curve is a Figure-2 series: reachable and in-use heap size over
// allocation time. Each sample i covers time Times[i] (bytes allocated).
type Curve struct {
	Times     []int64
	Reachable []int64
	InUse     []int64
}

// PeakReachable returns the maximum of the reachable series.
func (c Curve) PeakReachable() int64 {
	var peak int64
	for _, v := range c.Reachable {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// BuildCurve reconstructs the reachable and in-use heap-size series from
// trailers. An object is reachable in [create, collect) and in use in
// [create, lastUse). maxSamples caps the series length (the sampling step
// is then a multiple of the deep-GC interval).
func BuildCurve(p *profile.Profile, maxSamples int) Curve {
	if maxSamples <= 1 {
		maxSamples = 512
	}
	recs := p.Reported()
	step := p.GCInterval
	if step <= 0 {
		step = profile.DefaultGCInterval
	}
	for p.FinalClock/step+1 > int64(maxSamples) {
		step *= 2
	}
	n := int(p.FinalClock/step) + 1

	type event struct {
		time  int64
		reach int64
		inUse int64
	}
	events := make([]event, 0, len(recs)*2)
	for _, r := range recs {
		ev := event{time: r.Create, reach: r.Size}
		if r.Used() {
			ev.inUse = r.Size
		}
		events = append(events, ev)
		if r.Used() && r.LastUse < r.Collect {
			events = append(events, event{time: r.LastUse, inUse: -r.Size})
			events = append(events, event{time: r.Collect, reach: -r.Size})
		} else {
			// Collected at (or before) last use: both series drop
			// together.
			events = append(events, event{time: r.Collect, reach: -r.Size, inUse: -boolInt(r.Used()) * r.Size})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].time < events[j].time })

	c := Curve{
		Times:     make([]int64, n),
		Reachable: make([]int64, n),
		InUse:     make([]int64, n),
	}
	var reach, inUse int64
	ei := 0
	for i := 0; i < n; i++ {
		t := int64(i) * step
		for ei < len(events) && events[ei].time <= t {
			reach += events[ei].reach
			inUse += events[ei].inUse
			ei++
		}
		c.Times[i] = t
		c.Reachable[i] = reach
		c.InUse[i] = inUse
	}
	return c
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Comparison quantifies the savings between an original and a revised run,
// the derivation behind the paper's Tables 2 and 3 — plus the per-site
// breakdown the cross-run regression queries are built on.
type Comparison struct {
	Benchmark string
	// Integrals in MByte² (the paper's unit).
	ReducedReachable  float64
	ReducedInUse      float64
	OriginalReachable float64
	OriginalInUse     float64
	// DragSavingPct = (origReach − revReach) / (origReach − origInUse).
	// Can exceed 100% when the revised reachable integral falls below
	// the original in-use integral (the paper's mc benchmark).
	DragSavingPct float64
	// SpaceSavingPct = 1 − revReach/origReach.
	SpaceSavingPct float64
	// Sites is the per-site drag delta over the union of both reports'
	// nested allocation sites, sorted by |drag delta| descending. Sites
	// present in only one report appear with the other side zeroed — a
	// site that vanished (rewritten away) or appeared (a regression) is
	// exactly what a cross-run diff must surface, not drop.
	Sites []SiteDelta
}

// SiteDelta is one nested allocation site's row in a cross-run comparison.
type SiteDelta struct {
	// Desc is the printable nested-site description.
	Desc string
	// InBase and InHead report which side the site appears in.
	InBase bool
	InHead bool
	// BaseDrag and HeadDrag are the site's drag space-time products
	// (byte²); DragDelta = HeadDrag − BaseDrag.
	BaseDrag  int64
	HeadDrag  int64
	DragDelta int64
	// BaseCount and HeadCount are the object counts.
	BaseCount int
	HeadCount int
	// BaseBytes and HeadBytes are the allocated bytes.
	BaseBytes int64
	HeadBytes int64
}

// Status names the delta class: "added" (head only), "removed" (base
// only) or "common".
func (d SiteDelta) Status() string {
	switch {
	case d.InBase && d.InHead:
		return "common"
	case d.InHead:
		return "added"
	default:
		return "removed"
	}
}

// ErrRateMismatch is the typed error CompareChecked wraps when the two
// reports were measured at different sampling rates: their drag numbers
// live on different estimator scales (exact sums vs Horvitz–Thompson
// estimates at distinct inclusion probabilities), so a delta between them
// is statistically meaningless. Callers surface it as a client error
// (dragserved answers 422), mirroring the CheckMergeable guard on
// cross-run aggregation.
var ErrRateMismatch = errors.New("drag: sample-rate mismatch")

// CompareChecked is Compare with the cross-rate guard: it rejects report
// pairs whose effective sampling rates differ with an error wrapping
// ErrRateMismatch instead of silently diffing incompatible estimators.
// New callers should prefer it; Compare remains for pairs the caller has
// already proven rate-compatible (e.g. two analyses of the same run).
func CompareChecked(original, revised *Report) (Comparison, error) {
	ra, rb := effectiveRate(original), effectiveRate(revised)
	if ra != rb {
		return Comparison{}, fmt.Errorf("%w: base rate %g vs head rate %g (sampled and exact runs, or two different rates, cannot be diffed)",
			ErrRateMismatch, ra, rb)
	}
	return Compare(original, revised), nil
}

// effectiveRate normalizes a report's sampling rate: reports predating the
// rate field (zero) are exact, rate 1.
func effectiveRate(r *Report) float64 {
	if r.SampleRate <= 0 || r.SampleRate >= 1 {
		return 1
	}
	return r.SampleRate
}

// Compare derives the savings of revised over original, including the
// per-site drag deltas. The site diff covers the union of both reports'
// nested sites: disjoint site sets (an allocation removed by a rewrite, or
// a fresh site regressing a deployment) produce rows with the missing side
// zeroed rather than silently dropping the site.
func Compare(original, revised *Report) Comparison {
	c := Comparison{
		Benchmark:         original.Name,
		ReducedReachable:  MB2(revised.ReachableIntegral),
		ReducedInUse:      MB2(revised.InUseIntegral),
		OriginalReachable: MB2(original.ReachableIntegral),
		OriginalInUse:     MB2(original.InUseIntegral),
	}
	origDrag := c.OriginalReachable - c.OriginalInUse
	reduction := c.OriginalReachable - c.ReducedReachable
	if origDrag > 0 {
		c.DragSavingPct = reduction / origDrag * 100
	}
	if c.OriginalReachable > 0 {
		c.SpaceSavingPct = reduction / c.OriginalReachable * 100
	}
	c.Sites = diffSites(original.ByNestedSite, revised.ByNestedSite)
	return c
}

// diffSites joins two group lists on the site description. Groups sharing a
// description (possible when distinct chain keys render identically) are
// summed per side before joining.
func diffSites(base, head []*Group) []SiteDelta {
	deltas := make(map[string]*SiteDelta)
	order := make([]string, 0, len(base)+len(head))
	side := func(groups []*Group, inBase bool) {
		for _, g := range groups {
			d, ok := deltas[g.Desc]
			if !ok {
				d = &SiteDelta{Desc: g.Desc}
				deltas[g.Desc] = d
				order = append(order, g.Desc)
			}
			if inBase {
				d.InBase = true
				d.BaseDrag += g.Drag
				d.BaseCount += g.Count
				d.BaseBytes += g.Bytes
			} else {
				d.InHead = true
				d.HeadDrag += g.Drag
				d.HeadCount += g.Count
				d.HeadBytes += g.Bytes
			}
		}
	}
	side(base, true)
	side(head, false)
	out := make([]SiteDelta, 0, len(order))
	for _, desc := range order {
		d := deltas[desc]
		d.DragDelta = d.HeadDrag - d.BaseDrag
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := abs64(out[i].DragDelta), abs64(out[j].DragDelta)
		if ai != aj {
			return ai > aj
		}
		return out[i].Desc < out[j].Desc
	})
	return out
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
