package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"

	"dragprof/internal/drag"
	"dragprof/internal/profile"
	"dragprof/internal/server"
	"dragprof/internal/store"
)

// Output checks. Each compares an answer of the program with a figure the
// benchmark computes on its own from the records, or with a property the
// method must have, and returns a *checkError when they disagree.

// exactDrag is the total drag (byte²) of each program's exact profile on
// its original input, at dragprof's defaults. The VM is deterministic, so
// these are fixed; a change that moves one is a change of results, not of
// speed.
var exactDrag = map[string]int64{
	"javac":    371681625856,
	"db":       370680096704,
	"jack":     1275591242176,
	"raytrace": 486295353280,
	"jess":     417800781824,
	"mc":       745459159680,
	"euler":    155971953408,
	"juru":     184167666176,
	"analyzer": 2355651253440,
}

// totals are the benchmark's own integrals over a profile's records, in
// byte²: drag is Σ size × (collection time − last-use time), taking the
// creation time as the last use of a never-used object; reach and inUse
// are Σ size × (collection − creation) and Σ size × (last use − creation).
// Interned constant-pool objects are left out, as the paper does.
type totals struct {
	drag, reach, inUse int64
}

func ownTotals(p *profile.Profile) totals {
	var t totals
	for _, r := range p.Records {
		if r.Interned {
			continue
		}
		last := r.Create
		if r.LastUse != 0 {
			last = r.LastUse
			t.inUse += r.Size * (r.LastUse - r.Create)
		}
		t.drag += r.Size * (r.Collect - last)
		t.reach += r.Size * (r.Collect - r.Create)
	}
	return t
}

func checkOutput(profiled, plain string) error {
	if profiled != plain {
		return checkf("profiled output (%d bytes) differs from the unprofiled run's (%d bytes)",
			len(profiled), len(plain))
	}
	return nil
}

func checkClock(clock, allocBytes int64) error {
	if clock != allocBytes {
		return checkf("allocation clock %d != allocated bytes %d", clock, allocBytes)
	}
	return nil
}

// checkRoundTrip compares a decoded log with the profile it was written
// from, record for record.
func checkRoundTrip(want, got *profile.Profile) error {
	switch {
	case got.Name != want.Name:
		return checkf("decoded name %q, wrote %q", got.Name, want.Name)
	case got.FinalClock != want.FinalClock:
		return checkf("decoded final clock %d, wrote %d", got.FinalClock, want.FinalClock)
	case got.EffectiveSampleRate() != want.EffectiveSampleRate():
		return checkf("decoded sample rate %g, wrote %g", got.EffectiveSampleRate(), want.EffectiveSampleRate())
	case len(got.Sites) != len(want.Sites) || len(got.ChainNodes) != len(want.ChainNodes):
		return checkf("decoded %d sites and %d chain nodes, wrote %d and %d",
			len(got.Sites), len(got.ChainNodes), len(want.Sites), len(want.ChainNodes))
	case len(got.Records) != len(want.Records):
		return checkf("decoded %d records, wrote %d", len(got.Records), len(want.Records))
	}
	for i, r := range want.Records {
		if *got.Records[i] != *r {
			return checkf("record %d decoded as %+v, wrote %+v", i, *got.Records[i], *r)
		}
	}
	return nil
}

// checkTotals holds the analyzer's integrals against the benchmark's own.
func checkTotals(rep *drag.Report, own totals) error {
	switch {
	case rep.TotalDrag != own.drag:
		return checkf("total drag %d, own sum over the records %d", rep.TotalDrag, own.drag)
	case rep.ReachableIntegral-rep.InUseIntegral != rep.TotalDrag:
		return checkf("total drag %d != reachable %d - in-use %d",
			rep.TotalDrag, rep.ReachableIntegral, rep.InUseIntegral)
	case rep.ReachableIntegral != own.reach || rep.InUseIntegral != own.inUse:
		return checkf("reachable/in-use integrals %d/%d, own sums %d/%d",
			rep.ReachableIntegral, rep.InUseIntegral, own.reach, own.inUse)
	}
	return nil
}

func checkExactDrag(name string, total int64) error {
	want, ok := exactDrag[name]
	if !ok {
		return checkf("no exact drag recorded for %q", name)
	}
	if total != want {
		return checkf("%s: exact total drag %d, expected %d", name, total, want)
	}
	return nil
}

// checkEstimate validates a sampled report's drag estimate and says
// whether it lies within twice its 95% half-width of the exact figure.
func checkEstimate(rep *drag.Report, exact int64) (within bool, err error) {
	est, ci := rep.EstTotalDrag, rep.EstTotalDragCI
	if !rep.Sampled() || !(est > 0) || !(ci > 0) || math.IsInf(est, 0) || math.IsInf(ci, 0) {
		return false, checkf("sampled report has estimate %g ± %g at rate %g", est, ci, rep.SampleRate)
	}
	return math.Abs(est-float64(exact)) <= 2*ci, nil
}

// checkCoverage fails a run whose estimates miss the exact figures by more
// than twice their half-width far more often than a 95% interval allows.
// A single miss is no fault: at 1e-3 about one estimate in 1,700 lies that
// far out (see README.md).
func checkCoverage(misses, estimates int) error {
	if misses*10 > estimates {
		return checkf("%d of %d drag estimates lie more than two 95%% half-widths from the exact drag",
			misses, estimates)
	}
	return nil
}

// checkRunID holds a stored run's id against the SHA-256 of the bytes
// uploaded.
func checkRunID(id string, body []byte) error {
	sum := sha256.Sum256(body)
	if want := hex.EncodeToString(sum[:]); id != want {
		return checkf("run id %s, SHA-256 of the upload %s", id, want)
	}
	return nil
}

func checkStatus(got, want int) error {
	if got != want {
		return checkf("HTTP status %d, want %d", got, want)
	}
	return nil
}

// checkSiteTotals sums /sites drag per workload and holds it against the
// benchmark's own drag summed over the runs it stored.
func checkSiteTotals(sums []*store.SiteSummary, want map[string]int64) error {
	got := map[string]int64{}
	for _, s := range sums {
		got[s.Name] += s.Drag
	}
	for name, w := range want {
		if got[name] != w {
			return checkf("workload %s: /sites drag %d, own sum over its stored runs %d", name, got[name], w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return checkf("/sites reports workload %s, which was never stored", name)
		}
	}
	return nil
}

// checkTopSites checks a capped /sites answer: at most top entries, drag
// never rising, and every entry merged over all stored runs of its
// workload.
func checkTopSites(sums []*store.SiteSummary, top int, runs map[string]int) error {
	if len(sums) > top {
		return checkf("/sites?top=%d returned %d sites", top, len(sums))
	}
	for i, s := range sums {
		if i > 0 && s.Drag > sums[i-1].Drag {
			return checkf("/sites entry %d has drag %d above its predecessor's %d", i, s.Drag, sums[i-1].Drag)
		}
		if s.Runs != runs[s.Name] {
			return checkf("/sites entry %s %q merges %d runs, %d are stored", s.Name, s.Desc, s.Runs, runs[s.Name])
		}
	}
	return nil
}

// checkDiff holds a /diff answer against the two runs' own totals.
func checkDiff(d *server.DiffResponse, base, head totals) error {
	var baseSum, headSum, deltaSum int64
	for _, s := range d.Sites {
		baseSum += s.BaseDrag
		headSum += s.HeadDrag
		deltaSum += s.DragDelta
	}
	switch {
	case baseSum != base.drag || headSum != head.drag:
		return checkf("/diff site drag sums %d/%d, own totals %d/%d", baseSum, headSum, base.drag, head.drag)
	case deltaSum != head.drag-base.drag:
		return checkf("/diff drag deltas sum to %d, own totals differ by %d", deltaSum, head.drag-base.drag)
	case d.BaseReachableMB2 != drag.MB2(base.reach) || d.HeadReachableMB2 != drag.MB2(head.reach):
		return checkf("/diff reachable integrals %g/%g MB², own %g/%g",
			d.BaseReachableMB2, d.HeadReachableMB2, drag.MB2(base.reach), drag.MB2(head.reach))
	}
	saving := 0.0
	if origDrag := drag.MB2(base.reach) - drag.MB2(base.inUse); origDrag > 0 {
		saving = (drag.MB2(base.reach) - drag.MB2(head.reach)) / origDrag * 100
	}
	if math.Abs(d.DragSavingPct-saving) > 1e-9*math.Max(1, math.Abs(saving)) {
		return checkf("/diff drag saving %g%%, own %g%%", d.DragSavingPct, saving)
	}
	return nil
}
