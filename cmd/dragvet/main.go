// Command dragvet is the whole-program static drag linter: it compiles
// MiniJava sources (or a named benchmark), runs the Section 5 analysis
// suite — liveness, removability, lazy-allocation anticipability,
// vector-pattern array leaks, interprocedural escape — and emits ranked
// findings as text, JSON diagnostics, or SARIF.
//
// With -against it cross-validates the static predictions against a
// recorded drag log (from dragprof); with -profile it runs the program
// in-process first and validates against that run.
//
// Usage:
//
//	dragvet [-format text|json|sarif] file.mj...
//	dragvet -bench jack|all [-format ...]
//	dragvet -against drag.log file.mj...
//	dragvet -profile -bench jack
//
// Exit codes: 0 success, 1 failure (unreadable input, a source that does
// not compile, an unknown -bench, -fail-on-new without -baseline), 2 usage
// (no sources and no -bench, an unknown -format, -bench given with source
// files), 8 findings (a finding at or above -max-confidence-fail, or
// findings outside the -baseline under -fail-on-new).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dragprof/internal/bench"
	"dragprof/internal/cli"
	"dragprof/internal/drag"
	"dragprof/internal/lint"
	"dragprof/internal/mj"
	"dragprof/internal/profile"
	"dragprof/internal/report"
	"dragprof/internal/vm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// vetter carries one invocation's output streams and its gate state:
// the highest finding confidence across every lint target (for
// -max-confidence-fail) and the findings outside the -baseline (for
// -fail-on-new).
type vetter struct {
	stdout, stderr io.Writer
	format         string
	baseline       *report.Baseline
	maxConfidence  float64
	newFindings    int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dragvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchName := fs.String("bench", "", "lint a named benchmark instead of source files (or 'all')")
	format := fs.String("format", "text", "output format: text, json or sarif")
	against := fs.String("against", "", "cross-validate findings against a drag log written by dragprof")
	doProfile := fs.Bool("profile", false, "profile the program in-process and cross-validate against the run")
	interval := fs.Int64("interval", 100<<10, "deep-GC interval in allocated bytes for -profile")
	top := fs.Int("top", 10, "top-drag sites forming the cross-validation measured set")
	minShare := fs.Float64("minshare", 0.01, "minimum drag share for a measured site")
	minConf := fs.Float64("minconf", 0, "minimum confidence for a static finding to count as a prediction")
	pointsTo := fs.Bool("pointsto", false, "print points-to solver diagnostics and proved heap kills")
	maxConfFail := fs.Float64("max-confidence-fail", 0,
		"exit with status 8 if any finding's confidence is at or above this threshold (0 disables); CI gate")
	baselinePath := fs.String("baseline", "", "SARIF log whose fingerprints suppress known findings")
	failOnNew := fs.Bool("fail-on-new", false, "exit 8 when findings outside the -baseline remain")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitUsage
	}
	v := &vetter{stdout: stdout, stderr: stderr, format: *format}
	switch *format {
	case "text", "json", "sarif":
	default:
		return v.usage(fmt.Errorf("unknown format %q (want text, json or sarif)", *format))
	}
	if *benchName != "" && fs.NArg() != 0 {
		return v.usage(fmt.Errorf("-bench and source files are mutually exclusive"))
	}

	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			return v.fail(err)
		}
		v.baseline, err = report.ReadBaseline(data)
		if err != nil {
			return v.fail(fmt.Errorf("reading baseline %s: %w", *baselinePath, err))
		}
		fmt.Fprintf(stderr, "dragvet: baseline %s holds %d fingerprints\n", *baselinePath, v.baseline.Size())
	}
	if *failOnNew && *baselinePath == "" {
		return v.fail(fmt.Errorf("-fail-on-new requires -baseline"))
	}

	opts := lint.CrossOptions{TopN: *top, MinShare: *minShare, MinConfidence: *minConf}

	if *benchName != "" {
		targets := bench.All()
		if *benchName != "all" {
			b, err := bench.ByName(*benchName)
			if err != nil {
				return v.fail(err)
			}
			targets = []*bench.Benchmark{b}
		}
		for _, b := range targets {
			cp, err := b.Compile(bench.Original, bench.OriginalInput)
			if err != nil {
				return v.fail(err)
			}
			res := lint.Run(cp.Program)
			if len(targets) > 1 && *format == "text" {
				fmt.Fprintf(stdout, "== %s ==\n", b.Name)
			}
			if err := v.render(res.Findings); err != nil {
				return v.fail(err)
			}
			if *pointsTo {
				v.pointsToDiagnostics(res)
			}
			v.noteConfidence(res.Findings)
			if *doProfile {
				rr, err := bench.Run(b, bench.Original, bench.OriginalInput,
					bench.RunConfig{GCInterval: *interval})
				if err != nil {
					return v.fail(err)
				}
				if err := v.crossReport(res.Findings, rr.Report, opts); err != nil {
					return v.fail(err)
				}
			}
		}
		return v.confidenceGate(*maxConfFail, *failOnNew)
	}

	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: dragvet [flags] file.mj...  |  dragvet -bench name|all [flags]")
		fs.PrintDefaults()
		return cli.ExitUsage
	}

	names := fs.Args()
	sources := make(map[string]string, len(names))
	for _, name := range names {
		text, err := os.ReadFile(name)
		if err != nil {
			return v.fail(err)
		}
		sources[name] = string(text)
	}
	p, _, err := mj.CompileWithStdlib(names, sources)
	if err != nil {
		return v.fail(err)
	}
	res := lint.Run(p)
	if err := v.render(res.Findings); err != nil {
		return v.fail(err)
	}
	if *pointsTo {
		v.pointsToDiagnostics(res)
	}
	v.noteConfidence(res.Findings)

	if *against != "" {
		f, err := os.Open(*against)
		if err != nil {
			return v.fail(err)
		}
		prof, err := profile.ReadLog(f)
		f.Close()
		if err != nil {
			return v.fail(err)
		}
		if err := v.crossReport(res.Findings, drag.Analyze(prof, drag.Options{}), opts); err != nil {
			return v.fail(err)
		}
	}
	if *doProfile {
		rep, err := profileProgram(names, sources, *interval)
		if err != nil {
			return v.fail(err)
		}
		if err := v.crossReport(res.Findings, rep, opts); err != nil {
			return v.fail(err)
		}
	}
	return v.confidenceGate(*maxConfFail, *failOnNew)
}

func (v *vetter) noteConfidence(fs []lint.Finding) {
	for _, f := range fs {
		if f.Confidence > v.maxConfidence {
			v.maxConfidence = f.Confidence
		}
	}
	if v.baseline != nil {
		fresh, _ := report.FilterNew(lint.Diagnostics(fs), v.baseline)
		v.newFindings += len(fresh)
	}
}

// confidenceGate turns dragvet into a CI check: with -max-confidence-fail
// set, any finding at or above the threshold fails the build with the
// shared findings exit status, so scripts can tell a gate trip from a
// crash. With -fail-on-new, findings whose fingerprints the -baseline
// SARIF does not hold fail the same way.
func (v *vetter) confidenceGate(threshold float64, failOnNew bool) int {
	if threshold > 0 && v.maxConfidence >= threshold {
		fmt.Fprintf(v.stderr, "dragvet: findings with confidence %.2f >= fail threshold %.2f\n",
			v.maxConfidence, threshold)
		return cli.ExitFindings
	}
	if failOnNew && v.newFindings > 0 {
		fmt.Fprintf(v.stderr, "dragvet: %d new findings not in the baseline\n", v.newFindings)
		return cli.ExitFindings
	}
	return cli.ExitOK
}

// pointsToDiagnostics prints the solver's shape and the heap-liveness
// verdicts backing the proved findings.
func (v *vetter) pointsToDiagnostics(res *lint.Result) {
	st := res.PT.Stats()
	fmt.Fprintf(v.stdout, "points-to: %d nodes, %d copy edges, %d load / %d store constraints, %d collapsed, %d iterations\n",
		st.Nodes, st.CopyEdges, st.LoadCs, st.StoreCs, st.Collapsed, st.Iterations)
	if len(res.Heap.Kills) == 0 {
		fmt.Fprintln(v.stdout, "heap-liveness: no proved phase kills")
		return
	}
	for i := range res.Heap.Kills {
		k := &res.Heap.Kills[i]
		fmt.Fprintf(v.stdout, "heap-liveness: %s proved dead past guard @%d (bound %s), frees %d sites; use paths: %s\n",
			k.Path, k.GuardPC, k.Bound, len(k.HeldSites), strings.Join(k.UsePaths, ", "))
	}
}

// profileProgram compiles the sources afresh (the lint target must stay
// pristine) and runs them on the instrumented VM.
func profileProgram(names []string, sources map[string]string, interval int64) (*drag.Report, error) {
	p, _, err := mj.CompileWithStdlib(names, sources)
	if err != nil {
		return nil, err
	}
	prof, _, err := profile.Run(p, "dragvet", vm.Config{GCInterval: interval})
	if err != nil {
		return nil, err
	}
	return drag.Analyze(prof, drag.Options{}), nil
}

// render writes findings in the selected format. Multiple calls (bench
// 'all' in text mode) are separated by the per-benchmark headers.
func (v *vetter) render(fs []lint.Finding) error {
	var out string
	var err error
	switch v.format {
	case "json":
		out, err = lint.JSON(fs)
	case "sarif":
		// With a baseline, results carry baselineState (new/unchanged) so
		// downstream consumers can gate without re-reading the old log.
		out, err = report.SARIFWithOptions(lint.ToolName, lint.ToolVersion,
			lint.Rules(fs), lint.Diagnostics(fs), report.SARIFOptions{Baseline: v.baseline})
	default:
		out = lint.Text(fs)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(v.stdout, out)
	return nil
}

// crossReport prints the static↔dynamic comparison in the selected format
// (SARIF has no cross-validation shape, so it falls back to JSON).
func (v *vetter) crossReport(fs []lint.Finding, rep *drag.Report, opts lint.CrossOptions) error {
	cr := lint.CrossValidate(fs, rep, opts)
	if v.format == "text" {
		fmt.Fprintln(v.stdout, cr.Text())
		return nil
	}
	data, err := json.MarshalIndent(cr, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(v.stdout, string(data))
	return nil
}

func (v *vetter) usage(err error) int {
	fmt.Fprintln(v.stderr, "dragvet:", err)
	return cli.ExitUsage
}

func (v *vetter) fail(err error) int {
	fmt.Fprintln(v.stderr, "dragvet:", err)
	return cli.ExitFailure
}
