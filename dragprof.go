// Package dragprof is a heap-profiling toolkit for space-efficient
// programs, reproducing "Heap Profiling for Space-Efficient Java" (Shaham,
// Kolodner, Sagiv — PLDI 2001) on a self-contained managed runtime.
//
// The toolkit compiles MiniJava programs to bytecode, executes them on a
// virtual machine with a handle-based, garbage-collected heap, and measures
// each object's drag: the interval between its last use and the moment it
// becomes unreachable, weighted by its size. Aggregated by allocation site,
// drag pinpoints where simple rewrites — assigning null to dead references,
// removing dead allocations, or allocating lazily — reclaim space.
//
// The typical workflow is:
//
//	prog, err := dragprof.Compile(dragprof.Source{Name: "app.mj", Text: src})
//	prof, err := prog.ProfileRun(dragprof.RunOptions{})
//	report := prof.Analyze(dragprof.AnalysisOptions{})
//	for _, site := range report.TopSites(10) { ... }
package dragprof

import (
	"context"
	"fmt"
	"io"
	"time"

	"dragprof/internal/bytecode"
	"dragprof/internal/drag"
	"dragprof/internal/mj"
	"dragprof/internal/profile"
	"dragprof/internal/vm"
)

// Source is one MiniJava source file.
type Source struct {
	// Name labels the file in diagnostics.
	Name string
	// Text is the MiniJava source.
	Text string
}

// Program is a compiled MiniJava program ready to execute or profile.
type Program struct {
	bc      *bytecode.Program
	checked *mj.Checked
}

// Compile parses, checks and compiles the sources together with the
// MiniJava runtime library (Object, String, the Throwable hierarchy).
// Sources compile in argument order, which fixes static-initializer order.
func Compile(sources ...Source) (*Program, error) {
	names := make([]string, len(sources))
	texts := make(map[string]string, len(sources))
	for i, s := range sources {
		names[i] = s.Name
		texts[s.Name] = s.Text
	}
	bc, ck, err := mj.CompileWithStdlib(names, texts)
	if err != nil {
		return nil, err
	}
	return &Program{bc: bc, checked: ck}, nil
}

// Disassemble renders the compiled bytecode as text.
func (p *Program) Disassemble() string {
	return bytecode.DisassembleProgram(p.bc)
}

// RunOptions configure an execution.
type RunOptions struct {
	// Name labels the profiled run in its drag log (default "program").
	// The dragserved store groups runs by this name when compacting
	// cross-run summaries, so give repeated runs of the same program the
	// same name. Ignored by Run.
	Name string
	// HeapBytes is the heap capacity (default 48 MB, the paper's
	// maximum SPECjvm98 heap).
	HeapBytes int64
	// Collector is "mark-sweep" (default), "mark-compact" or
	// "generational".
	Collector string
	// GCIntervalBytes triggers a deep GC every N allocated bytes while
	// profiling (default 100 KB, the paper's trigger). Ignored by Run.
	GCIntervalBytes int64
	// SampleRate, when in (0, 1), turns on byte-weighted sampling of the
	// profiler: an object of s bytes gets a trailer with probability
	// 1-(1-SampleRate)^s, unsampled objects carry zero event overhead, and
	// the analysis scales estimates by inverse inclusion probability.
	// Outside (0, 1) — including the default 0 — every object is profiled
	// exactly. Ignored by Run.
	SampleRate float64
	// SampleSeed seeds the sampler deterministically (0: fixed default).
	// The same program, rate and seed reproduce a byte-identical log.
	// Ignored by Run.
	SampleSeed uint64
	// MaxSteps bounds execution (default 4e9 instructions).
	MaxSteps int64
	// Seed seeds the deterministic random() builtin.
	Seed uint64
	// Out receives program output; nil captures it in the result.
	Out io.Writer
	// AllocBudgetBytes, when positive, aborts the run once total
	// allocation exceeds it (deterministic; vm.BudgetError).
	AllocBudgetBytes int64
	// HeapLiveBudgetBytes, when positive, aborts the run when the live
	// heap stays over it after a full collection.
	HeapLiveBudgetBytes int64
	// WallClockBudget, when positive, aborts the run after that much real
	// time.
	WallClockBudget time.Duration
	// Context, when non-nil, aborts the run on cancellation.
	Context context.Context
}

func (o RunOptions) budgets() vm.Budgets {
	return vm.Budgets{
		AllocBytes:    o.AllocBudgetBytes,
		HeapLiveBytes: o.HeapLiveBudgetBytes,
		WallClock:     o.WallClockBudget,
		Context:       o.Context,
	}
}

func (o RunOptions) vmConfig() vm.Config {
	return vm.Config{
		HeapCapacity: o.HeapBytes,
		Collector:    vm.CollectorKind(o.Collector),
		MaxSteps:     o.MaxSteps,
		Seed:         o.Seed,
		Out:          o.Out,
		Budgets:      o.budgets(),
	}
}

// CostSummary is the deterministic work accounting of an execution.
type CostSummary struct {
	// Instructions executed.
	Instructions int64
	// Allocations and AllocBytes performed.
	Allocations int64
	AllocBytes  int64
	// Collections run (major cycles included).
	Collections int64
	// RuntimeUnits folds everything into one comparable scalar.
	RuntimeUnits int64
}

// Execution is the outcome of an unprofiled run.
type Execution struct {
	// Output is the program's captured output (when RunOptions.Out was
	// nil).
	Output string
	// Cost is the deterministic work accounting.
	Cost CostSummary
}

// Run executes the program without instrumentation.
func (p *Program) Run(opts RunOptions) (*Execution, error) {
	m, err := vm.New(p.bc, opts.vmConfig())
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	return &Execution{Output: m.Output(), Cost: costSummary(m.CostReport())}, nil
}

func costSummary(c vm.Cost) CostSummary {
	return CostSummary{
		Instructions: c.Instructions,
		Allocations:  c.Allocations,
		AllocBytes:   c.AllocBytes,
		Collections:  c.GC.Collections,
		RuntimeUnits: c.RuntimeUnits(),
	}
}

// Profile is the phase-1 output: per-object trailers plus the site and
// call-chain tables needed to render reports.
type Profile struct {
	p *profile.Profile
	// Output is the program's captured output during the profiled run
	// (empty for profiles read back from a log).
	Output string
	// Cost is the profiled run's work accounting (zero for profiles read
	// from a log).
	Cost CostSummary
}

// ProfileRun executes the program under full drag instrumentation: every
// object carries a trailer (creation time, last-use time, size, nested
// allocation and last-use sites), a deep GC runs every GCIntervalBytes of
// allocation, and trailers are logged at reclamation or exit.
//
// A run aborted by a resource budget, an uncaught exception or a runtime
// fault still yields a usable profile: the trailers of every object live at
// abort time are flushed, and the partial Profile is returned alongside the
// non-nil error (errors.As against *vm.BudgetError distinguishes budget
// aborts from program failures). Only construction failures return a nil
// Profile.
func (p *Program) ProfileRun(opts RunOptions) (*Profile, error) {
	cfg := opts.vmConfig()
	cfg.GCInterval = opts.GCIntervalBytes
	cfg.SampleRate = opts.SampleRate
	cfg.SampleSeed = opts.SampleSeed
	name := opts.Name
	if name == "" {
		name = "program"
	}
	prof, m, err := profile.Run(p.bc, name, cfg)
	if prof == nil {
		return nil, err
	}
	return &Profile{p: prof, Output: m.Output(), Cost: costSummary(m.CostReport())}, err
}

// TotalAllocationBytes is the allocation clock at exit — the paper's
// measure of time.
func (pr *Profile) TotalAllocationBytes() int64 { return pr.p.FinalClock }

// NumObjects is the number of logged object trailers.
func (pr *Profile) NumObjects() int { return len(pr.p.Records) }

// SampleRate is the effective per-byte sampling rate the profile was
// recorded at (1 for exact profiles).
func (pr *Profile) SampleRate() float64 { return pr.p.EffectiveSampleRate() }

// WriteBinaryLog serializes the profile in the binary v4 log format, the
// file interface between phase 1 and phase 2: record blocks of a shape and
// a time section, each with a CRC32C footer; compress gzips the body.
func (pr *Profile) WriteBinaryLog(w io.Writer, compress bool) error {
	return profile.WriteBinaryLog(w, pr.p, profile.BinaryOptions{Compress: compress})
}

// ReadLog parses a profile log written by WriteBinaryLog. Input without
// the binary log's magic is refused.
func ReadLog(r io.Reader) (*Profile, error) {
	p, err := profile.ReadLog(r)
	if err != nil {
		return nil, err
	}
	return &Profile{p: p}, nil
}

// BudgetError is the typed error a resource-budget abort carries; test
// with errors.As.
type BudgetError = vm.BudgetError

// Budget kinds, as found in BudgetError.Kind.
const (
	BudgetAllocBytes = vm.BudgetAllocBytes
	BudgetHeapLive   = vm.BudgetHeapLive
	BudgetWallClock  = vm.BudgetWallClock
	BudgetCanceled   = vm.BudgetCanceled
)

// ErrStepBudget reports RunOptions.MaxSteps exhaustion.
var ErrStepBudget = vm.ErrStepBudget

// CorruptLogError reports exactly where decoding a drag log failed.
type CorruptLogError = profile.CorruptLogError

// SalvageReport describes what SalvageLog recovered from a damaged log.
type SalvageReport = profile.SalvageReport

// SalvageLog reads as much of a (possibly truncated or corrupted) profile
// log as its integrity machinery can vouch for: every record block before
// the first fault. The report describes the recovery; a non-nil error means
// the log's header or tables were damaged and nothing was salvageable.
func SalvageLog(r io.Reader) (*Profile, *SalvageReport, error) {
	p, sr, err := profile.SalvageLog(r)
	if err != nil {
		return nil, sr, err
	}
	return &Profile{p: p}, sr, nil
}

// AnalysisOptions tune the phase-2 analysis.
type AnalysisOptions struct {
	// NestDepth limits nested allocation sites to the innermost N call
	// sites (default 4).
	NestDepth int
	// NeverUsedWindowBytes treats objects used only within this window
	// of their creation as never used (default: the profiling GC
	// interval; covers constructor-only uses).
	NeverUsedWindowBytes int64
}

// Analyze runs the phase-2 drag analysis on GOMAXPROCS workers. The
// per-worker aggregates merge in record order, so the report is
// byte-identical to a serial pass.
func (pr *Profile) Analyze(opts AnalysisOptions) *Report {
	r := drag.AnalyzeParallel(pr.p, drag.Options{
		NestDepth:       opts.NestDepth,
		NeverUsedWindow: opts.NeverUsedWindowBytes,
	}, 0)
	return &Report{r: r, p: pr.p}
}

// Report is the phase-2 analysis result: allocation sites sorted by their
// aggregate drag.
type Report struct {
	r *drag.Report
	p *profile.Profile
}

// ReachableIntegral is Σ size × (collect − create) in byte² — the area
// under the reachable curve.
func (r *Report) ReachableIntegral() int64 { return r.r.ReachableIntegral }

// InUseIntegral is Σ size × (lastUse − create) in byte².
func (r *Report) InUseIntegral() int64 { return r.r.InUseIntegral }

// TotalDrag is Σ size × dragTime in byte².
func (r *Report) TotalDrag() int64 { return r.r.TotalDrag }

// TotalAllocationBytes is the profiled run's final allocation clock.
func (r *Report) TotalAllocationBytes() int64 { return r.r.FinalClock }

// CanonicalDump renders every field of the report in a fixed order with
// exact hexadecimal floats: two reports are equal exactly when their dumps
// are byte-identical. This is the cross-pipeline (and, via dragserved, the
// cross-network) determinism oracle.
func (r *Report) CanonicalDump() []byte { return r.r.CanonicalDump() }

// SiteSummary describes one allocation site's drag, its classified
// lifetime pattern and the rewrite the pattern suggests.
type SiteSummary struct {
	// Site renders the nested allocation site (call chain).
	Site string
	// Objects allocated at the site, and how many were never used.
	Objects   int
	NeverUsed int
	// Bytes allocated at the site.
	Bytes int64
	// Drag is the site's aggregate drag space-time product (byte²).
	Drag int64
	// DragShare is the site's fraction of the program's total drag.
	DragShare float64
	// Pattern classifies the site's lifetime behaviour (paper §3.4).
	Pattern string
	// Suggestion is the rewriting strategy the pattern suggests.
	Suggestion string
	// LastUseSites lists the top last-use sites with their drag.
	LastUseSites []string
}

// TopSites returns the n nested allocation sites with the largest drag,
// the tool's primary output.
func (r *Report) TopSites(n int) []SiteSummary {
	groups := r.r.ByNestedSite
	if n > len(groups) {
		n = len(groups)
	}
	out := make([]SiteSummary, 0, n)
	for _, g := range groups[:n] {
		s := SiteSummary{
			Site:       g.Desc,
			Objects:    g.Count,
			NeverUsed:  g.NeverUsed,
			Bytes:      g.Bytes,
			Drag:       g.Drag,
			Pattern:    g.Pattern.String(),
			Suggestion: suggestion(g.Pattern),
		}
		if r.r.TotalDrag > 0 {
			s.DragShare = float64(g.Drag) / float64(r.r.TotalDrag)
		}
		for _, pg := range g.LastUse {
			s.LastUseSites = append(s.LastUseSites,
				fmt.Sprintf("%s (%d objects, drag %d)", pg.LastUseDesc, pg.Count, pg.Drag))
		}
		out = append(out, s)
	}
	return out
}

func suggestion(p drag.Pattern) string { return p.Suggestion() }

// AnchorSummary describes an anchor allocation site: the innermost
// application-code frame of a nested allocation site (library-interior
// allocations are attributed to the application line that triggered them,
// paper Section 3.4), with lifetime histograms.
type AnchorSummary struct {
	// Site renders the anchor program point.
	Site string
	// Objects, NeverUsed, Bytes, Drag, DragShare as in SiteSummary.
	Objects   int
	NeverUsed int
	Bytes     int64
	Drag      int64
	DragShare float64
	// Pattern and Suggestion classify the anchor group.
	Pattern    string
	Suggestion string
	// DragHistogram and InUseHistogram partition the group's objects by
	// drag/in-use time in power-of-two multiples of the never-used
	// window (counts, innermost bucket first).
	DragHistogram  string
	InUseHistogram string
}

// AnchorSites returns the n anchor allocation sites with the largest drag.
func (r *Report) AnchorSites(n int) []AnchorSummary {
	groups := drag.AnchorGroups(r.p, drag.Options{
		NestDepth:       r.r.Options.NestDepth,
		NeverUsedWindow: r.r.Options.NeverUsedWindow,
	})
	if n > len(groups) {
		n = len(groups)
	}
	out := make([]AnchorSummary, 0, n)
	for _, g := range groups[:n] {
		a := AnchorSummary{
			Site:           g.Desc,
			Objects:        g.Count,
			NeverUsed:      g.NeverUsed,
			Bytes:          g.Bytes,
			Drag:           g.Drag,
			Pattern:        g.Pattern.String(),
			Suggestion:     suggestion(g.Pattern),
			DragHistogram:  g.DragHist.String(),
			InUseHistogram: g.InUseHist.String(),
		}
		if r.r.TotalDrag > 0 {
			a.DragShare = float64(g.Drag) / float64(r.r.TotalDrag)
		}
		out = append(out, a)
	}
	return out
}

// Savings quantifies the improvement of a revised program over the
// original, the derivation behind the paper's Tables 2 and 3.
type Savings struct {
	// DragSavingPct is (origReach − revReach) / (origReach − origInUse)
	// × 100; can exceed 100 when the revised reachable integral falls
	// below the original in-use integral.
	DragSavingPct float64
	// SpaceSavingPct is (1 − revReach/origReach) × 100, the average
	// space saved.
	SpaceSavingPct float64
	// OriginalReachableMB2 and RevisedReachableMB2 are the integrals in
	// MByte².
	OriginalReachableMB2 float64
	RevisedReachableMB2  float64
}

// Compare derives the savings of a revised program's report over the
// original's. The reports must share a sample rate for the comparison to
// be meaningful; use CompareChecked to reject mixed-rate pairs.
func Compare(original, revised *Report) Savings {
	c := drag.Compare(original.r, revised.r)
	return Savings{
		DragSavingPct:        c.DragSavingPct,
		SpaceSavingPct:       c.SpaceSavingPct,
		OriginalReachableMB2: c.OriginalReachable,
		RevisedReachableMB2:  c.ReducedReachable,
	}
}

// CompareChecked is Compare with the sample-rate guard: comparing a
// sampled run against an exact one (or two runs sampled at different
// rates) silently mis-scales every percentage, so mixed-rate pairs are
// rejected with an error wrapping drag.ErrRateMismatch.
func CompareChecked(original, revised *Report) (Savings, error) {
	c, err := drag.CompareChecked(original.r, revised.r)
	if err != nil {
		return Savings{}, err
	}
	return Savings{
		DragSavingPct:        c.DragSavingPct,
		SpaceSavingPct:       c.SpaceSavingPct,
		OriginalReachableMB2: c.OriginalReachable,
		RevisedReachableMB2:  c.ReducedReachable,
	}, nil
}

// Curve is a reachable/in-use heap-size series over allocation time — one
// panel of the paper's Figure 2.
type Curve struct {
	// TimesBytes is the allocation clock per sample.
	TimesBytes []int64
	// ReachableBytes and InUseBytes are the heap sizes per sample.
	ReachableBytes []int64
	InUseBytes     []int64
}

// Curve reconstructs the heap-size series from the profile's trailers.
// maxSamples caps the series length.
func (pr *Profile) Curve(maxSamples int) Curve {
	c := drag.BuildCurve(pr.p, maxSamples)
	return Curve{TimesBytes: c.Times, ReachableBytes: c.Reachable, InUseBytes: c.InUse}
}
