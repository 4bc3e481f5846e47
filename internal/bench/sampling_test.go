package bench

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dragprof/internal/drag"
	"dragprof/internal/profile"
)

// The sampling differential battery: byte-weighted sampled profiling must
// be an unbiased, deterministic, salvageable view of exact profiling. The
// bridge is profile.Downsample, which replays the VM's geometric byte
// countdown over an exact profile's allocation-ordered records —
// TestSampledVMRunMatchesDownsample pins that replay to real sampled VM
// runs, and everything else leans on it to sweep all nine workloads across
// four decades of sampling rate without re-running the VM per cell.

var samplingRates = []float64{1e-1, 1e-2, 1e-3, 1e-4}

// TestSampledVMRunMatchesDownsample is the suite's load-bearing
// equivalence: a VM run with sampling enabled logs exactly the trailers
// that downsampling the exact profile at the same rate and seed selects,
// with every field identical once chain ids are resolved through each
// log's own chain table (a live sampled run interns chains only for
// sampled objects, so its ids renumber the exact run's). Every other
// sampling test may then substitute the cheap replay for a live sampled
// run.
func TestSampledVMRunMatchesDownsample(t *testing.T) {
	const rate, seed = 1e-2, 42
	for _, name := range []string{"db", "raytrace", "euler"} {
		name := name
		t.Run(name, func(t *testing.T) {
			exact := diffProfile(t, name)
			ds, err := profile.Downsample(exact, rate, seed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Run(b, Original, OriginalInput, RunConfig{SampleRate: rate, SampleSeed: seed})
			if err != nil {
				t.Fatal(err)
			}
			live := r.Profile
			if live.EffectiveSampleRate() != rate {
				t.Fatalf("live profile rate %g, want %g", live.EffectiveSampleRate(), rate)
			}
			if live.FinalClock != ds.FinalClock {
				t.Errorf("final clock differs: live %d, replay %d", live.FinalClock, ds.FinalClock)
			}
			if len(live.Records) != len(ds.Records) {
				t.Fatalf("live run logged %d records, replay selected %d", len(live.Records), len(ds.Records))
			}
			for i := range live.Records {
				lv, dv := resolveRecord(live, live.Records[i]), resolveRecord(ds, ds.Records[i])
				if !reflect.DeepEqual(lv, dv) {
					t.Fatalf("record %d differs:\nlive   %+v\nreplay %+v", i, lv, dv)
				}
			}
			// And the analyses agree site by site, estimates included.
			liveRep, dsRep := drag.Analyze(live, drag.Options{}), drag.Analyze(ds, drag.Options{})
			if liveRep.EstTotalDrag != dsRep.EstTotalDrag || liveRep.EstTotalDragCI != dsRep.EstTotalDragCI {
				t.Errorf("estimates differ: live %g ± %g, replay %g ± %g",
					liveRep.EstTotalDrag, liveRep.EstTotalDragCI, dsRep.EstTotalDrag, dsRep.EstTotalDragCI)
			}
			if len(liveRep.ByNestedSite) != len(dsRep.ByNestedSite) {
				t.Fatalf("group counts differ: live %d, replay %d", len(liveRep.ByNestedSite), len(dsRep.ByNestedSite))
			}
			for i, lg := range liveRep.ByNestedSite {
				dg := dsRep.ByNestedSite[i]
				if lg.Desc != dg.Desc || lg.EstDrag != dg.EstDrag || lg.Drag != dg.Drag || lg.Count != dg.Count {
					t.Fatalf("group %d differs: live %s (est %g), replay %s (est %g)",
						i, lg.Desc, lg.EstDrag, dg.Desc, dg.EstDrag)
				}
			}
		})
	}
}

// resolvedRecord is a Record with its chain ids replaced by the resolved
// call chains, the chain-table-independent form two runs can be compared
// in.
type resolvedRecord struct {
	Rec          profile.Record
	Chain        string
	LastUseChain string
}

func resolveRecord(p *profile.Profile, r *profile.Record) resolvedRecord {
	rr := *r
	rr.Chain, rr.LastUseChain = 0, 0
	return resolvedRecord{
		Rec:          rr,
		Chain:        resolveChain(p, r.Chain),
		LastUseChain: resolveChain(p, r.LastUseChain),
	}
}

func resolveChain(p *profile.Profile, id int32) string {
	var buf bytes.Buffer
	for id >= 0 && int(id) < len(p.ChainNodes) {
		n := p.ChainNodes[id]
		fmt.Fprintf(&buf, "%s:%d;", p.MethodNames[n.Method], n.Line)
		id = n.Parent
	}
	return buf.String()
}

// TestSamplingDifferentialMatrix sweeps all nine workloads across rates
// 1e-1..1e-4 and asserts, per cell: fixed-seed determinism down to the
// encoded bytes, lossless log round trips of the sampled profile, and
// estimates that bracket the exact totals within their own reported
// confidence intervals (4 half-widths — the fixed-seed matrix must pass
// deterministically; tight 1-CI coverage is measured across seeds in
// TestSamplingUnbiasedCoverage).
func TestSamplingDifferentialMatrix(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			exact := diffProfile(t, name)
			exactRep := drag.Analyze(exact, drag.Options{})
			for _, rate := range samplingRates {
				ds, err := profile.Downsample(exact, rate, 1)
				if err != nil {
					t.Fatal(err)
				}

				// Fixed seed → byte-identical logs; different seed →
				// (overwhelmingly) a different sample.
				again, err := profile.Downsample(exact, rate, 1)
				if err != nil {
					t.Fatal(err)
				}
				var log1, log2 bytes.Buffer
				if err := profile.WriteBinaryLog(&log1, ds, profile.BinaryOptions{}); err != nil {
					t.Fatal(err)
				}
				if err := profile.WriteBinaryLog(&log2, again, profile.BinaryOptions{}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(log1.Bytes(), log2.Bytes()) {
					t.Errorf("rate %g: same seed produced different sampled logs", rate)
				}

				// The round trip preserves the rate header and every
				// surviving record.
				fromBin, err := profile.ReadLog(bytes.NewReader(log1.Bytes()))
				if err != nil {
					t.Fatalf("rate %g: binary read: %v", rate, err)
				}
				if !reflect.DeepEqual(fromBin, ds) {
					t.Errorf("rate %g: log round trip differs from the downsampled profile", rate)
				}
				if got := fromBin.EffectiveSampleRate(); got != rate {
					t.Errorf("rate %g: round trip read back rate %g", rate, got)
				}

				// Serial and parallel analysis of the sampled log agree to
				// the last bit, estimates included.
				rep := drag.Analyze(ds, drag.Options{})
				if got := drag.AnalyzeParallel(fromBin, drag.Options{}, 8).CanonicalDump(); !bytes.Equal(rep.CanonicalDump(), got) {
					t.Errorf("rate %g: parallel sampled report differs from serial", rate)
				}
				if !rep.Sampled() || rep.SampleRate != rate {
					t.Fatalf("rate %g: report not flagged sampled (rate %g)", rate, rep.SampleRate)
				}

				// The estimate brackets the exact total within its own
				// reported uncertainty.
				est, ci := rep.EstTotalDrag, rep.EstTotalDragCI
				exactDrag := float64(exactRep.TotalDrag)
				t.Logf("rate %g: %d/%d records, est drag %.3g ± %.3g vs exact %.3g (err %+.1f%%)",
					rate, len(ds.Records), len(exact.Records), est, ci, exactDrag,
					100*(est-exactDrag)/exactDrag)
				// The 0.1% relative floor covers near-saturated samples
				// (tiny populations at high rates, where nearly every byte
				// is sampled and the residual variance estimate collapses
				// below the handful of certainly-missed small objects).
				if miss := math.Abs(est - exactDrag); miss > 4*ci && miss > 1e-3*exactDrag {
					t.Errorf("rate %g: est drag %.4g ± %.4g excludes exact %.4g at 4 half-widths",
						rate, est, ci, exactDrag)
				}
				if bl, tot := float64(len(ds.Records)), rep.EstTotalObjects; bl > 0 && tot <= 0 {
					t.Errorf("rate %g: %d sampled records but est objects %g", rate, len(ds.Records), tot)
				}
			}
		})
	}
}

// TestSamplingUnbiasedCoverage measures the advertised confidence level:
// at rate 1e-2, across twenty independent seeds per workload, the exact
// drag total must fall inside the report's 95% interval (or within 0.1% of
// exact — the near-saturation floor, see the matrix test) in at least
// sixteen — the suite's statistical unbiasedness assertion. Measured
// coverage on the embedded workloads runs 85-100%: the Horvitz-Thompson
// variance estimate plus a normal approximation mildly undercovers on
// heavily skewed size distributions, and the 80% bar separates that from
// an actually biased estimator, which scores near zero.
func TestSamplingUnbiasedCoverage(t *testing.T) {
	const (
		rate     = 1e-2
		seeds    = 20
		minCover = 16
	)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			exact := diffProfile(t, name)
			exactDrag := float64(drag.Analyze(exact, drag.Options{}).TotalDrag)
			covered := 0
			for seed := uint64(1); seed <= seeds; seed++ {
				ds, err := profile.Downsample(exact, rate, seed)
				if err != nil {
					t.Fatal(err)
				}
				rep := drag.Analyze(ds, drag.Options{})
				miss := math.Abs(rep.EstTotalDrag - exactDrag)
				if miss <= rep.EstTotalDragCI || miss <= 1e-3*exactDrag {
					covered++
				} else {
					t.Logf("seed %d: est %.4g ± %.4g misses exact %.4g",
						seed, rep.EstTotalDrag, rep.EstTotalDragCI, exactDrag)
				}
			}
			t.Logf("%d/%d seeds covered exact drag at 95%%", covered, seeds)
			if covered < minCover {
				t.Errorf("exact drag covered by only %d/%d intervals (want >= %d): estimator biased or intervals too tight",
					covered, seeds, minCover)
			}
		})
	}
}

// TestSamplingRankStability: sampling must preserve what the profile is
// for — pointing at the top drag sites. For each workload's exact top-5
// nested sites, every site must surface in the sampled ranking with a
// bounded mean rank displacement (a top-K Spearman footrule), tighter at
// higher rates.
func TestSamplingRankStability(t *testing.T) {
	const topK = 5
	cases := []struct {
		rate float64
		// maxMeanShift bounds the average |exact rank - sampled rank| of
		// the exact top-5; maxLost bounds how many of them may fall outside
		// the sampled report entirely.
		maxMeanShift float64
		maxLost      int
	}{
		{rate: 1e-1, maxMeanShift: 1.0, maxLost: 0},
		{rate: 1e-2, maxMeanShift: 4.0, maxLost: 1},
		{rate: 1e-3, maxMeanShift: 10.0, maxLost: 1},
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			exact := diffProfile(t, name)
			exactRep := drag.Analyze(exact, drag.Options{})
			k := topK
			if k > len(exactRep.ByNestedSite) {
				k = len(exactRep.ByNestedSite)
			}
			for _, c := range cases {
				ds, err := profile.Downsample(exact, c.rate, 1)
				if err != nil {
					t.Fatal(err)
				}
				rep := drag.Analyze(ds, drag.Options{})
				sampledRank := make(map[string]int, len(rep.ByNestedSite))
				for i, g := range rep.ByNestedSite {
					sampledRank[g.Key] = i
				}
				lost, shift := 0, 0.0
				ranked := 0
				for i, g := range exactRep.ByNestedSite[:k] {
					j, ok := sampledRank[g.Key]
					if !ok {
						lost++
						continue
					}
					shift += math.Abs(float64(j - i))
					ranked++
				}
				mean := 0.0
				if ranked > 0 {
					mean = shift / float64(ranked)
				}
				t.Logf("rate %g: top-%d mean rank shift %.2f, %d lost", c.rate, k, mean, lost)
				if lost > c.maxLost {
					t.Errorf("rate %g: %d of the exact top-%d sites missing from the sampled report (allow %d)",
						c.rate, lost, k, c.maxLost)
				}
				if mean > c.maxMeanShift {
					t.Errorf("rate %g: top-%d mean rank shift %.2f exceeds %.2f",
						c.rate, k, mean, c.maxMeanShift)
				}
			}
		})
	}
}

// TestSampledLogSalvage: damage handling must not regress on sampled logs.
// Truncating a sampled binary log mid-block salvages the checksummed
// prefix with the sample-rate header intact, and the partial sampled
// profile analyzes cleanly (estimates scaled at the recorded rate).
func TestSampledLogSalvage(t *testing.T) {
	exact := diffProfile(t, "jack")
	ds, err := profile.Downsample(exact, 1e-2, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := profile.WriteBinaryLog(&buf, ds, profile.BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	offs, err := profile.BlockOffsets(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) < 2 {
		t.Fatalf("want >= 2 record blocks, got %d", len(offs))
	}
	// Cut mid-way through the final block (offsets are block ends): the
	// blocks before it are vouched for by checkpoints and must survive.
	cut := (offs[len(offs)-2] + offs[len(offs)-1]) / 2
	p, sr, err := profile.SalvageLog(bytes.NewReader(buf.Bytes()[:cut]))
	if err != nil {
		t.Fatalf("salvage: %v (report %+v)", err, sr)
	}
	if sr.Clean() {
		t.Error("salvage of a truncated log reported clean")
	}
	if got := p.EffectiveSampleRate(); got != 1e-2 {
		t.Errorf("salvaged profile lost the sample rate: got %g, want 0.01", got)
	}
	if len(p.Records) == 0 || len(p.Records) >= len(ds.Records) {
		t.Fatalf("salvaged %d records, want a non-empty strict prefix of %d", len(p.Records), len(ds.Records))
	}
	for i, r := range p.Records {
		if !reflect.DeepEqual(r, ds.Records[i]) {
			t.Fatalf("salvaged record %d differs from the original", i)
		}
	}
	rep := drag.Analyze(p, drag.Options{})
	if !rep.Sampled() || rep.EstTotalDrag <= 0 {
		t.Errorf("salvaged sampled profile analyzed wrong: sampled=%v est drag %g", rep.Sampled(), rep.EstTotalDrag)
	}
}
