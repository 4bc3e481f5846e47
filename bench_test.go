package dragprof_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section 4) as testing.B benchmarks. Each bench reports the
// headline metric(s) of its table as custom units so the shape comparison
// against the paper is visible straight from `go test -bench`:
//
//	BenchmarkTable1Inventory     — Table 1, benchmark program inventory
//	BenchmarkTable2DragSavings   — Table 2, drag & space savings (orig inputs)
//	BenchmarkTable3AlternateIn   — Table 3, space savings (alternate inputs)
//	BenchmarkTable4RuntimeSav    — Table 4, runtime savings (generational GC)
//	BenchmarkTable5Rewritings    — Table 5, rewriting summary
//	BenchmarkFigure2Curves       — Figure 2, reachable/in-use curves
//
// Ablations beyond the paper (backing DESIGN.md §7):
//
//	BenchmarkAblationGCInterval  — deep-GC interval vs measured drag
//	BenchmarkAblationCollectors  — profiling overhead per collector
//	BenchmarkAblationNestDepth   — nested-site depth vs report granularity
//	BenchmarkAblationAutoVsManual— automatic transformer vs manual rewrite
//	BenchmarkAblationLiveRoots   — Agesen-style liveness-filtered GC roots

import (
	"context"
	"testing"

	"dragprof/internal/bench"
	"dragprof/internal/drag"
	"dragprof/internal/pilot"
	"dragprof/internal/profile"
	"dragprof/internal/transform"
	"dragprof/internal/vm"
)

func BenchmarkTable1Inventory(b *testing.B) {
	e := bench.NewExperiments()
	for i := 0; i < b.N; i++ {
		t, err := e.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 9 {
			b.Fatalf("expected 9 benchmarks, got %d", len(t.Rows))
		}
	}
}

func BenchmarkTable2DragSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := bench.NewExperiments()
		rows, err := e.Table2Rows()
		if err != nil {
			b.Fatal(err)
		}
		var sumDrag, sumSpace float64
		for _, r := range rows {
			sumDrag += r.DragSavingPct
			sumSpace += r.SpaceSavingPct
		}
		b.ReportMetric(sumDrag/float64(len(rows)), "avg-drag-saving-%")
		b.ReportMetric(sumSpace/float64(len(rows)), "avg-space-saving-%")
	}
}

func BenchmarkTable3AlternateInputs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := bench.NewExperiments()
		rows, err := e.Table3Rows()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.SpaceSavingPct
		}
		b.ReportMetric(sum/float64(len(rows)), "avg-space-saving-%")
	}
}

func BenchmarkTable4RuntimeSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := bench.NewExperiments()
		rows, err := e.Table4Rows()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.RuntimeSavingPct
		}
		b.ReportMetric(sum/float64(len(rows)), "avg-runtime-saving-%")
	}
}

func BenchmarkTable5Rewritings(b *testing.B) {
	e := bench.NewExperiments()
	for i := 0; i < b.N; i++ {
		t, err := e.Table5()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) < 10 {
			b.Fatalf("expected >=10 rewriting rows, got %d", len(t.Rows))
		}
	}
}

func BenchmarkFigure2Curves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := bench.NewExperiments()
		panels, err := e.Figure2Panels(256)
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) != 9 {
			b.Fatalf("expected 9 panels, got %d", len(panels))
		}
		// Report euler's plateau drop, the panel the paper highlights
		// (the revised heap "almost coincides with the in-use size").
		for _, p := range panels {
			if p.Benchmark == "euler" {
				b.ReportMetric(float64(p.Original.PeakReachable())/(1<<20), "euler-orig-peak-MB")
				b.ReportMetric(float64(p.Revised.PeakReachable())/(1<<20), "euler-rev-peak-MB")
			}
		}
	}
}

// Per-benchmark profiled runs: `go test -bench=BenchmarkProfile/<name>`.
func BenchmarkProfile(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.Run(bm, bench.Original, bench.OriginalInput, bench.RunConfig{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(drag.MB2(r.Report.TotalDrag), "drag-MB2")
				b.SetBytes(r.Report.FinalClock)
			}
		})
	}
}

// BenchmarkAblationGCInterval sweeps the deep-GC trigger: the paper notes
// "a larger interval yields less precise results" — drag is overestimated
// as the interval grows because unreachability is detected later.
func BenchmarkAblationGCInterval(b *testing.B) {
	bm, err := bench.ByName("juru")
	if err != nil {
		b.Fatal(err)
	}
	for _, interval := range []int64{4 << 10, 8 << 10, 32 << 10, 128 << 10, 512 << 10} {
		interval := interval
		b.Run(byteSizeName(interval), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.Run(bm, bench.Original, bench.OriginalInput,
					bench.RunConfig{GCInterval: interval})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(drag.MB2(r.Report.ReachableIntegral), "reach-MB2")
				b.ReportMetric(drag.MB2(r.Report.TotalDrag), "drag-MB2")
			}
		})
	}
}

// BenchmarkAblationCollectors measures profiled-run cost under each
// collector.
func BenchmarkAblationCollectors(b *testing.B) {
	bm, err := bench.ByName("jess")
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []vm.CollectorKind{vm.MarkSweep, vm.MarkCompact, vm.Generational} {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.Run(bm, bench.Original, bench.OriginalInput,
					bench.RunConfig{Collector: kind})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Cost.GC.Collections), "collections")
			}
		})
	}
}

// BenchmarkAblationNestDepth varies the nested-allocation-site depth (the
// Section 2.1.1 accuracy/speed tradeoff) and reports how many distinct
// sites the report distinguishes.
func BenchmarkAblationNestDepth(b *testing.B) {
	bm, err := bench.ByName("jack")
	if err != nil {
		b.Fatal(err)
	}
	r, err := bench.Run(bm, bench.Original, bench.OriginalInput, bench.RunConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{1, 2, 4, 8} {
		depth := depth
		b.Run(depthName(depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := drag.Analyze(r.Profile, drag.Options{NestDepth: depth})
				b.ReportMetric(float64(len(rep.ByNestedSite)), "distinct-sites")
			}
		})
	}
}

// BenchmarkAblationAutoVsManual compares the space saving of the rewrite
// planner, driven by a local dragpilot sweep, against the paper-style
// manual rewrite.
func BenchmarkAblationAutoVsManual(b *testing.B) {
	for _, name := range []string{"raytrace", "jack"} {
		name := name
		b.Run(name, func(b *testing.B) {
			bm, err := bench.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := pilot.Bench(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := pilot.Run(context.Background(), pilot.Options{Local: []pilot.Program{prog}})
				if err != nil {
					b.Fatal(err)
				}
				auto := res.Workloads[0].Local

				orig, err := bench.Run(bm, bench.Original, bench.OriginalInput, bench.RunConfig{})
				if err != nil {
					b.Fatal(err)
				}
				rev, err := bench.Run(bm, bench.Revised, bench.OriginalInput, bench.RunConfig{})
				if err != nil {
					b.Fatal(err)
				}
				manual := drag.Compare(orig.Report, rev.Report)
				b.ReportMetric(auto.SpaceSavingPct, "auto-space-%")
				b.ReportMetric(manual.SpaceSavingPct, "manual-space-%")
			}
		})
	}
}

// BenchmarkAblationLiveRoots measures the reachable-integral reduction from
// liveness-filtered GC roots (no source rewriting at all).
func BenchmarkAblationLiveRoots(b *testing.B) {
	bm, err := bench.ByName("juru")
	if err != nil {
		b.Fatal(err)
	}
	cp, err := bm.Compile(bench.Original, bench.OriginalInput)
	if err != nil {
		b.Fatal(err)
	}
	filter := transform.LiveSlotFilter(cp.Program)
	for i := 0; i < b.N; i++ {
		plain, _, err := profile.Run(cp.Program, "plain", vm.Config{GCInterval: bench.DefaultGCInterval})
		if err != nil {
			b.Fatal(err)
		}
		filtered, _, err := profile.Run(cp.Program, "filtered", vm.Config{
			GCInterval:     bench.DefaultGCInterval,
			LiveSlotFilter: filter,
		})
		if err != nil {
			b.Fatal(err)
		}
		p := drag.Analyze(plain, drag.Options{})
		f := drag.Analyze(filtered, drag.Options{})
		b.ReportMetric(drag.MB2(p.ReachableIntegral), "plain-reach-MB2")
		b.ReportMetric(drag.MB2(f.ReachableIntegral), "liveroots-reach-MB2")
	}
}

func byteSizeName(n int64) string {
	switch {
	case n >= 1<<20:
		return itoa(n>>20) + "MB"
	case n >= 1<<10:
		return itoa(n>>10) + "KB"
	default:
		return itoa(n) + "B"
	}
}

func depthName(d int) string { return "depth" + itoa(int64(d)) }

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// BenchmarkAblationHeapSize varies the heap capacity under the generational
// collector (the paper fixes 32/48 MB for SPEC and 64/96 MB for the
// numeric codes): smaller heaps collect more often, raising the runtime
// cost of drag.
func BenchmarkAblationHeapSize(b *testing.B) {
	bm, err := bench.ByName("mc")
	if err != nil {
		b.Fatal(err)
	}
	for _, heapMB := range []int64{2, 4, 48} {
		heapMB := heapMB
		b.Run(byteSizeName(heapMB<<20), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cost, err := bench.RunUnprofiled(bm, bench.Original, bench.OriginalInput,
					vm.Generational, heapMB<<20)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cost.GC.Collections), "collections")
				b.ReportMetric(float64(cost.RuntimeUnits()), "runtime-units")
			}
		})
	}
}
