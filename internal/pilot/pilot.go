// Package pilot closes the profiling loop: it takes a program's drag-hot
// allocation sites — pulled from a dragserved instance, or from an
// in-process profile in local mode — asks the batch prover which of the
// paper's rewrites are sound, hands every resolved site with its profiled
// pattern to transform.Rewrite (proved rewrites first, then validated
// ones), re-profiles the rewritten program against the baseline, and
// reports the reachable-but-dead gap it closed. Sites the analyses find
// plausible but cannot prove become SARIF suggestions for a human, with
// stable fingerprints so a stored baseline suppresses everything already
// triaged.
package pilot

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"

	"dragprof/internal/analysis"
	"dragprof/internal/bench"
	"dragprof/internal/bytecode"
	"dragprof/internal/drag"
	"dragprof/internal/lint"
	"dragprof/internal/profile"
	"dragprof/internal/report"
	"dragprof/internal/server"
	"dragprof/internal/store"
	"dragprof/internal/transform"
	"dragprof/internal/vm"
)

// Program is one program a sweep rewrites. Compile must return a fresh,
// independent copy on every call: the prover, the rewriter and the
// baseline run each need their own.
type Program struct {
	Name    string
	Compile func() (*bytecode.Program, error)
}

// Bench returns the named embedded benchmark's original version.
func Bench(name string) (Program, error) {
	b, err := bench.ByName(name)
	if err != nil {
		return Program{}, err
	}
	return Program{Name: b.Name, Compile: func() (*bytecode.Program, error) {
		cp, err := b.Compile(bench.Original, bench.OriginalInput)
		if err != nil {
			return nil, err
		}
		return cp.Program, nil
	}}, nil
}

// Options configure one autofix sweep.
type Options struct {
	// Client talks to the dragserved instance holding the fleet profiles.
	Client *server.Client
	// Workloads restricts the sweep to these benchmark names; empty sweeps
	// every served workload that names an embedded benchmark.
	Workloads []string
	// Local, when non-empty, replaces the server: each program is profiled
	// in-process and its report's nested-site groups, the groups
	// dragserved serves as /sites, go down the same sort, top-N, prove,
	// rewrite and re-profile path. Client, Workloads and Push are unused.
	Local []Program
	// Top bounds how many drag-hot sites per workload are sent to the
	// prover (default 10, the paper's table depth).
	Top int
	// GCInterval and HeapBytes configure the re-profiling runs; they must
	// match the served baseline runs for the diff to be apples-to-apples
	// (defaults: bench.DefaultGCInterval, 48 MB).
	GCInterval int64
	HeapBytes  int64
	// Push uploads the re-profiled run and queries the server-side diff
	// against the stored baseline. Off, the sweep still rewrites and
	// measures in-process (dry run).
	Push bool
	// Baseline suppresses previously-triaged SARIF findings.
	Baseline *report.Baseline
	// Prover supplies the proof cache; nil builds a fresh one (shared
	// provers amortize analysis across sweeps of unchanged programs).
	Prover *analysis.Prover
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// WorkloadResult is the sweep outcome for one benchmark.
type WorkloadResult struct {
	// Workload is the benchmark name.
	Workload string `json:"workload"`
	// Refs are the served drag-hot site references sent to the prover and
	// Verdicts the prover's answers (sorted by SortVerdicts).
	Refs     []analysis.SiteRef     `json:"refs"`
	Verdicts []analysis.SiteVerdict `json:"verdicts"`
	// Actions are the transform.Rewrite actions (applied and rejected) and
	// Applied the applied count.
	Actions []transform.Action `json:"actions"`
	Applied int                `json:"applied"`
	// MonoCalls are the RTA-monomorphic virtual calls (dragopt's
	// devirtualization opportunities), surfaced as informational
	// monomorphic-call diagnostics.
	MonoCalls []lint.Finding `json:"monoCalls,omitempty"`
	// OutputIdentical reports that the rewritten program printed exactly
	// the original's output — the safety oracle.
	OutputIdentical bool `json:"outputIdentical"`
	// Local compares the in-process before/after profiles.
	Local drag.Comparison `json:"local"`
	// BaseRun/HeadRun are store ids: the served baseline run diffed
	// against and the pushed re-profile (empty without Push).
	BaseRun string `json:"baseRun,omitempty"`
	HeadRun string `json:"headRun,omitempty"`
	// Diff is the server-side comparison (nil without Push or baseline).
	Diff *server.DiffResponse `json:"diff,omitempty"`
	// DragSavingPct is the headline number: the served diff's saving when
	// available, the local comparison's otherwise.
	DragSavingPct float64 `json:"dragSavingPct"`
}

// Result is one full sweep.
type Result struct {
	Workloads []*WorkloadResult `json:"workloads"`
	// Diagnostics are the SARIF-bound findings (suggestions for
	// plausible-but-unproved sites and notes for applied rewrites), before
	// baseline filtering; NewFindings/Suppressed count the baseline split.
	Diagnostics []report.Diagnostic `json:"diagnostics"`
	NewFindings int                 `json:"newFindings"`
	Suppressed  int                 `json:"suppressed"`
	// SARIF is the rendered log (baseline states stamped when a baseline
	// was given).
	SARIF string `json:"-"`
	// Stats snapshots the prover cache counters after the sweep.
	Stats analysis.ProverStats `json:"stats"`
}

// Rules is the SARIF rule table for pilot diagnostics.
func Rules() []report.RuleInfo {
	return []report.RuleInfo{
		{ID: "autofix-applied", Description: "a proved or validated rewrite was applied automatically"},
		{ID: "autofix-rejected", Description: "a selected rewrite failed static validation and was not applied"},
		{ID: "suggest-write-only", Description: "object state is written but never read back; consider removing the allocation"},
		{ID: "suggest-assign-null", Description: "the object stays confined to its allocating method; consider nulling the last holder"},
		{ID: "suggest-lazy-alloc", Description: "most objects from the site are never used; consider lazy allocation"},
		{ID: lint.RuleMonomorphicCall, Description: lint.RuleDescriptions[lint.RuleMonomorphicCall]},
	}
}

func defaults(opts Options) Options {
	if opts.Top <= 0 {
		opts.Top = 10
	}
	if opts.GCInterval <= 0 {
		opts.GCInterval = bench.DefaultGCInterval
	}
	if opts.HeapBytes <= 0 {
		opts.HeapBytes = 48 << 20
	}
	if opts.Prover == nil {
		opts.Prover = analysis.NewProver()
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	return opts
}

// Run executes one sweep. The result is deterministic for a fixed server
// state (or local program set) and option set: workloads are visited in a
// fixed order, verdicts and diagnostics are sorted, and the rewritten
// programs and their re-profiles are replayed on the deterministic VM.
func Run(ctx context.Context, opts Options) (*Result, error) {
	opts = defaults(opts)
	progs := opts.Local
	var served map[string][]*store.SiteSummary
	if len(progs) == 0 {
		var err error
		if progs, served, err = servedPrograms(ctx, opts); err != nil {
			return nil, err
		}
	}

	res := &Result{}
	for _, prog := range progs {
		wr, err := runWorkload(ctx, opts, prog, served[prog.Name])
		if err != nil {
			return nil, fmt.Errorf("pilot: %s: %w", prog.Name, err)
		}
		res.Workloads = append(res.Workloads, wr)
		res.Diagnostics = append(res.Diagnostics, diagnose(wr)...)
	}

	fresh, suppressed := report.FilterNew(res.Diagnostics, opts.Baseline)
	res.NewFindings, res.Suppressed = len(fresh), suppressed
	sarif, err := report.SARIFWithOptions("dragpilot", "1", Rules(), res.Diagnostics,
		report.SARIFOptions{Baseline: opts.Baseline})
	if err != nil {
		return nil, fmt.Errorf("pilot: rendering SARIF: %w", err)
	}
	res.SARIF = sarif
	res.Stats = opts.Prover.Stats()
	return res, nil
}

// servedPrograms fetches the served site summaries and picks the
// benchmarks to sweep: the requested workloads, or every served workload
// that names an embedded benchmark.
func servedPrograms(ctx context.Context, opts Options) ([]Program, map[string][]*store.SiteSummary, error) {
	if opts.Client == nil {
		return nil, nil, fmt.Errorf("pilot: no server client configured")
	}
	sums, err := opts.Client.Sites(ctx, "drag", 0)
	if err != nil {
		return nil, nil, fmt.Errorf("pilot: fetching served sites: %w", err)
	}
	byWorkload := make(map[string][]*store.SiteSummary)
	for _, s := range sums {
		byWorkload[s.Name] = append(byWorkload[s.Name], s)
	}

	names := opts.Workloads
	explicit := len(names) > 0
	if !explicit {
		for name := range byWorkload {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	var progs []Program
	for _, name := range names {
		prog, err := Bench(name)
		if err != nil {
			if explicit {
				return nil, nil, fmt.Errorf("pilot: %w", err)
			}
			continue
		}
		progs = append(progs, prog)
	}
	return progs, byWorkload, nil
}

// runProfile is the profiler entry point; tests substitute a memoized
// profile.Run so sweeps of an unchanged program reuse one run.
var runProfile = profile.Run

// runWorkload sweeps one program: profile the original, prove the top
// sites (served, or from that profile in local mode), rewrite, re-profile,
// and (with Push) upload and diff against the served baseline.
func runWorkload(ctx context.Context, opts Options, prog Program, sums []*store.SiteSummary) (*WorkloadResult, error) {
	cfg := vm.Config{HeapCapacity: opts.HeapBytes, GCInterval: opts.GCInterval}
	cpBase, err := prog.Compile()
	if err != nil {
		return nil, err
	}
	baseProf, baseVM, err := runProfile(cpBase, prog.Name, cfg)
	if err != nil {
		return nil, fmt.Errorf("original run: %w", err)
	}
	baseRep := drag.Analyze(baseProf, drag.Options{})
	if len(opts.Local) > 0 {
		sums = store.SummarizeSites(prog.Name, 1, baseRep)
	}

	// The served summaries arrive drag-sorted across workloads; re-sort
	// within the workload (drag descending, description tiebreak) before
	// truncating so the top-N cut is deterministic.
	sums = append([]*store.SiteSummary(nil), sums...)
	sort.SliceStable(sums, func(i, j int) bool {
		if sums[i].Drag != sums[j].Drag {
			return sums[i].Drag > sums[j].Drag
		}
		return sums[i].Desc < sums[j].Desc
	})
	if len(sums) > opts.Top {
		sums = sums[:opts.Top]
	}

	wr := &WorkloadResult{Workload: prog.Name}
	patternOf := make(map[string]string, len(sums))
	for _, s := range sums {
		wr.Refs = append(wr.Refs, analysis.SiteRef{Desc: s.Desc})
		patternOf[s.Desc] = s.Pattern
	}

	// Two more independent compiles of the same deterministic sources:
	// the prover keeps a live reference to its program inside the
	// content-hash cache, so the copy handed to it must never be mutated,
	// and the rewriter edits its copy in place.
	cpProve, err := prog.Compile()
	if err != nil {
		return nil, err
	}
	verdicts, err := opts.Prover.ProveSites(cpProve, wr.Refs)
	if err != nil {
		return nil, err
	}
	// Devirtualization opportunities ride along as informational findings:
	// the prover's program copy is read-only, so the extra call graph here
	// cannot disturb the cached analyses.
	wr.MonoCalls = lint.MonomorphicCallFindings(cpProve, analysis.BuildCallGraph(cpProve))

	cands, err := candidates(verdicts, patternOf)
	if err != nil {
		return nil, err
	}
	analysis.SortVerdicts(verdicts)
	wr.Verdicts = verdicts

	cpHead, err := prog.Compile()
	if err != nil {
		return nil, err
	}
	actions, err := transform.Rewrite(cpHead, cands)
	if err != nil {
		return nil, err
	}
	wr.Actions = actions
	for _, a := range actions {
		if a.Applied {
			wr.Applied++
		}
	}
	fmt.Fprintf(opts.Log, "pilot: %s: %d sites proved over, %d rewrites applied (%d considered)\n",
		prog.Name, len(wr.Refs), wr.Applied, len(actions))

	// The rewritten program is a different build: its site and chain
	// tables no longer match the fleet runs, so its profile is pushed
	// under a derived workload name rather than polluting (and breaking)
	// the original workload's cross-run merge.
	headProf, headVM, err := runProfile(cpHead, prog.Name+"/rewritten", cfg)
	if err != nil {
		return nil, fmt.Errorf("rewritten run: %w", err)
	}
	wr.OutputIdentical = baseVM.Output() == headVM.Output()
	if !wr.OutputIdentical {
		return nil, fmt.Errorf("rewritten program output diverges from the original (%d rewrites applied)", wr.Applied)
	}
	headRep := drag.Analyze(headProf, drag.Options{})
	local, err := drag.CompareChecked(baseRep, headRep)
	if err != nil {
		// Both runs share cfg, so this can only mean the sampling config
		// diverged mid-sweep — a misconfiguration, not a finding.
		return nil, fmt.Errorf("comparing rewritten run: %w", err)
	}
	wr.Local = local
	wr.DragSavingPct = wr.Local.DragSavingPct

	if opts.Push && len(opts.Local) == 0 {
		if err := pushAndDiff(ctx, opts, wr, headProf); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(opts.Log, "pilot: %s: drag saving %.1f%% (output identical)\n", prog.Name, wr.DragSavingPct)
	return wr, nil
}

// candidates hands the planner every verdict whose anchor resolved,
// together with the pattern the profile classified its group under.
func candidates(verdicts []analysis.SiteVerdict, patternOf map[string]string) ([]transform.Candidate, error) {
	var out []transform.Candidate
	for _, v := range verdicts {
		if v.Anchor < 0 {
			continue
		}
		pat, err := drag.ParsePattern(patternOf[v.Ref.Desc])
		if err != nil {
			return nil, err
		}
		out = append(out, transform.Candidate{Site: v.Anchor, Pattern: pat})
	}
	return out, nil
}

// pushAndDiff uploads the re-profiled run and fills in the server-side
// comparison against the oldest clean served run of the workload.
func pushAndDiff(ctx context.Context, opts Options, wr *WorkloadResult, headProf *profile.Profile) error {
	var buf bytes.Buffer
	if err := profile.WriteBinaryLog(&buf, headProf, profile.BinaryOptions{}); err != nil {
		return fmt.Errorf("encoding rewritten-run log: %w", err)
	}
	resp, err := opts.Client.PushReader(ctx, buf.Bytes(), server.PushOptions{})
	if err != nil {
		return fmt.Errorf("pushing rewritten run: %w", err)
	}
	wr.HeadRun = resp.Run.ID

	// The baseline is the lowest-id clean served run of the original
	// workload; after-runs live under the "/rewritten" name, so they can
	// never be mistaken for a baseline even across repeat sweeps.
	runs, err := opts.Client.Runs(ctx)
	if err != nil {
		return fmt.Errorf("listing served runs: %w", err)
	}
	base := ""
	for _, r := range runs {
		if r.Name == wr.Workload && !r.Salvaged && r.ID != wr.HeadRun && (base == "" || r.ID < base) {
			base = r.ID
		}
	}
	if base == "" {
		fmt.Fprintf(opts.Log, "pilot: %s: no served baseline run to diff against\n", wr.Workload)
		return nil
	}
	wr.BaseRun = base
	diff, err := opts.Client.Diff(ctx, base, wr.HeadRun)
	if err != nil {
		return fmt.Errorf("diffing %s against %s: %w", wr.HeadRun, base, err)
	}
	wr.Diff = diff
	wr.DragSavingPct = diff.DragSavingPct
	return nil
}

// diagnose turns one workload's sweep into SARIF-bound diagnostics:
// applied rewrites as notes, validation rejections as warnings, and
// plausible-but-unproved verdicts as the suggestions a human should
// triage. Verdicts and actions are already in
// deterministic order, so the diagnostic list is too.
func diagnose(wr *WorkloadResult) []report.Diagnostic {
	var out []report.Diagnostic
	hashOf := make(map[int32]string, len(wr.Verdicts))
	for _, v := range wr.Verdicts {
		if v.Site >= 0 {
			hashOf[v.Site] = v.MethodHash
		}
		if v.Anchor >= 0 && v.Anchor != v.Site {
			// The anchor's own hash is unknown here; the site hash still
			// pins the finding to unchanged code.
			if _, ok := hashOf[v.Anchor]; !ok {
				hashOf[v.Anchor] = v.MethodHash
			}
		}
	}
	for _, a := range wr.Actions {
		props := map[string]any{
			"workload": wr.Workload,
			"site":     a.SiteDesc,
			"strategy": a.Strategy,
			"tier":     a.Tier,
		}
		if h := hashOf[a.Site]; h != "" {
			props["methodHash"] = h
		}
		if a.Applied {
			out = append(out, report.Diagnostic{
				RuleID:  "autofix-applied",
				Level:   "note",
				Message: fmt.Sprintf("%s: applied %s %s at %s: %s", wr.Workload, a.Tier, a.Strategy, a.SiteDesc, a.Reason),
				File:    wr.Workload, Properties: props,
			})
		} else {
			props["reason"] = a.Reason
			out = append(out, report.Diagnostic{
				RuleID:  "autofix-rejected",
				Level:   "warning",
				Message: fmt.Sprintf("%s: %s %s at %s not applied: %s", wr.Workload, a.Tier, a.Strategy, a.SiteDesc, a.Reason),
				File:    wr.Workload, Properties: props,
			})
		}
	}
	for _, f := range wr.MonoCalls {
		out = append(out, report.Diagnostic{
			RuleID:  f.Rule,
			Level:   "note",
			Message: fmt.Sprintf("%s: %s", wr.Workload, f.Message),
			File:    f.File,
			Line:    f.Line,
			Properties: map[string]any{
				"workload":   wr.Workload,
				"method":     f.Method,
				"methodHash": f.MethodHash,
				"confidence": f.Confidence,
			},
		})
	}
	for _, v := range wr.Verdicts {
		if v.Status != analysis.VerdictPlausible {
			continue
		}
		props := map[string]any{
			"workload": wr.Workload,
			"site":     v.Desc,
			"kind":     v.Kind,
		}
		if v.MethodHash != "" {
			props["methodHash"] = v.MethodHash
		}
		out = append(out, report.Diagnostic{
			RuleID:     "suggest-" + v.Kind,
			Level:      "warning",
			Message:    fmt.Sprintf("%s: %s: %s", wr.Workload, v.Desc, v.Evidence),
			File:       v.File,
			Line:       v.Line,
			Properties: props,
		})
	}
	return out
}

// GapText renders the reachable-but-dead gap table: per workload, the
// reachable and in-use space-time integrals before and after the sweep's
// rewrites, the drag gap between them, and how much of it closed. Server
// diffs are preferred; workloads without one fall back to the in-process
// comparison (marked "local"), as every workload of a local sweep does.
func GapText(w io.Writer, res *Result) {
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %8s  %s\n",
		"workload", "reach-before", "gap-before", "reach-after", "gap-after", "closed", "source")
	for _, wr := range res.Workloads {
		baseReach, baseInUse := wr.Local.OriginalReachable, wr.Local.OriginalInUse
		headReach, headInUse := wr.Local.ReducedReachable, wr.Local.ReducedInUse
		src := "local"
		if wr.Diff != nil {
			baseReach, baseInUse = wr.Diff.BaseReachableMB2, wr.Diff.BaseInUseMB2
			headReach, headInUse = wr.Diff.HeadReachableMB2, wr.Diff.HeadInUseMB2
			src = "served " + short(wr.BaseRun) + ".." + short(wr.HeadRun)
		}
		fmt.Fprintf(w, "%-10s %11.2fM² %11.2fM² %11.2fM² %11.2fM² %7.1f%%  %s\n",
			wr.Workload, baseReach, baseReach-baseInUse, headReach, headReach-headInUse,
			wr.DragSavingPct, src)
	}
}

func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
