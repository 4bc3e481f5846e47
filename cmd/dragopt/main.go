// Command dragopt is the ahead-of-time whole-program bytecode optimizer:
// devirtualization of RTA-monomorphic calls, escape-proved region
// allocation, and liveness-based dead-code elimination (internal/opt),
// wrapped in a differential safety harness.
//
// For every target it compiles two copies, optimizes one, and — unless
// -verify=false — checks that the optimized program produces byte-identical
// output, that a second optimizer run is a no-op (same bytecode.ProgramHash,
// zero rewrites), and that the measured drag (internal/drag over a profiled
// run) did not get worse. Any verification failure exits with the shared
// findings status (8); the evidence trail of per-site rewrites is printed
// as text, JSON, or SARIF.
//
// Usage:
//
//	dragopt -bench jack|all [flags]
//	dragopt [flags] file.mj...
//
// Exit codes: 0 verified OK, 1 failure, 2 usage, 3 compile error,
// 8 verification failure (output mismatch, non-idempotence, drag
// regression, or -require-reduction unmet).
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
	"dragprof/internal/bytecode"
	"dragprof/internal/cli"
	"dragprof/internal/drag"
	"dragprof/internal/mj"
	"dragprof/internal/opt"
	"dragprof/internal/profile"
	"dragprof/internal/report"
	"dragprof/internal/vm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// target is one program to optimize and verify: a named benchmark or a
// source-file set. compile must return a fresh program on every call — the
// harness needs independent baseline and optimized copies.
type target struct {
	name    string
	compile func() (*bytecode.Program, error)
}

// outcome is the per-target verification record.
type outcome struct {
	Name  string    `json:"name"`
	Stats opt.Stats `json:"stats"`
	Hash  string    `json:"hash"`

	OutputIdentical bool `json:"outputIdentical"`
	Idempotent      bool `json:"idempotent"`

	BaseUnits   int64 `json:"baseRuntimeUnits"`
	OptUnits    int64 `json:"optRuntimeUnits"`
	RegionFrees int64 `json:"regionFrees"`

	BaseDrag int64 `json:"baseDrag,omitempty"`
	OptDrag  int64 `json:"optDrag,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dragopt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchName := fs.String("bench", "", "optimize a named benchmark instead of source files (or 'all')")
	passesFlag := fs.String("passes", strings.Join(opt.DefaultPasses, ","),
		"comma-separated pass list/order: devirt, region, dce")
	format := fs.String("format", "text", "evidence format: text, json or sarif")
	outPath := fs.String("out", "", "write evidence to a file instead of stdout")
	verify := fs.Bool("verify", true,
		"run the differential harness: byte-identical output, idempotence, drag not worse")
	interval := fs.Int64("interval", 100<<10, "deep-GC interval in allocated bytes for the drag comparison")
	requireReduction := fs.Bool("require-reduction", false,
		"exit with status 8 unless at least one target shows a measured drag reduction; CI gate")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitUsage
	}

	switch *format {
	case "text", "json", "sarif":
	default:
		return usage(stderr, fmt.Errorf("unknown format %q (want text, json or sarif)", *format))
	}
	passes := strings.Split(*passesFlag, ",")
	for i := range passes {
		passes[i] = strings.TrimSpace(passes[i])
	}

	var targets []target
	switch {
	case *benchName != "":
		if fs.NArg() != 0 {
			return usage(stderr, fmt.Errorf("-bench and source files are mutually exclusive"))
		}
		list := bench.All()
		if *benchName != "all" {
			b, err := bench.ByName(*benchName)
			if err != nil {
				return usage(stderr, err)
			}
			list = []*bench.Benchmark{b}
		}
		for _, b := range list {
			b := b
			targets = append(targets, target{name: b.Name, compile: func() (*bytecode.Program, error) {
				cp, err := b.Compile(bench.Original, bench.OriginalInput)
				if err != nil {
					return nil, err
				}
				return cp.Program, nil
			}})
		}
	case fs.NArg() > 0:
		names := fs.Args()
		sources := make(map[string]string, len(names))
		for _, name := range names {
			text, err := os.ReadFile(name)
			if err != nil {
				return fail(stderr, err)
			}
			sources[name] = string(text)
		}
		targets = append(targets, target{name: strings.Join(names, " "), compile: func() (*bytecode.Program, error) {
			p, _, err := mj.CompileWithStdlib(names, sources)
			return p, err
		}})
	default:
		fmt.Fprintln(stderr, "usage: dragopt -bench name|all [flags]  |  dragopt [flags] file.mj...")
		fs.PrintDefaults()
		return cli.ExitUsage
	}

	var (
		outcomes []outcome
		diags    []report.Diagnostic
		failed   bool
	)
	for _, tg := range targets {
		oc, ds, err := optimizeTarget(tg, passes, *verify, *interval)
		if err != nil {
			if _, ok := err.(*compileError); ok {
				fmt.Fprintln(stderr, "dragopt:", err)
				return cli.ExitCompile
			}
			return fail(stderr, err)
		}
		if *verify && (!oc.OutputIdentical || !oc.Idempotent || (oc.BaseDrag > 0 && oc.OptDrag > oc.BaseDrag)) {
			failed = true
		}
		outcomes = append(outcomes, *oc)
		diags = append(diags, ds...)
	}

	if err := renderEvidence(stdout, *format, *outPath, outcomes, diags); err != nil {
		return fail(stderr, err)
	}

	if failed {
		fmt.Fprintln(stderr, "dragopt: verification failed (see summary above)")
		return cli.ExitFindings
	}
	if *requireReduction {
		reduced := false
		for _, oc := range outcomes {
			if oc.OptDrag < oc.BaseDrag {
				reduced = true
			}
		}
		if !reduced {
			fmt.Fprintln(stderr, "dragopt: -require-reduction set but no target showed a drag reduction")
			return cli.ExitFindings
		}
	}
	return cli.ExitOK
}

// compileError marks compilation failures so run() can map them to the
// dedicated exit status.
type compileError struct{ err error }

func (e *compileError) Error() string { return e.err.Error() }

// optimizeTarget runs the optimize-and-verify pipeline for one target.
func optimizeTarget(tg target, passes []string, verify bool, interval int64) (*outcome, []report.Diagnostic, error) {
	pOpt, err := tg.compile()
	if err != nil {
		return nil, nil, &compileError{fmt.Errorf("%s: %w", tg.name, err)}
	}
	res, err := opt.Optimize(pOpt, opt.Options{Passes: passes})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", tg.name, err)
	}
	oc := &outcome{Name: tg.name, Stats: res.Stats, Hash: res.Hash, OutputIdentical: true, Idempotent: true}
	diags := opt.Diagnostics(res)

	if !verify {
		return oc, diags, nil
	}

	pBase, err := tg.compile()
	if err != nil {
		return nil, nil, &compileError{fmt.Errorf("%s: %w", tg.name, err)}
	}
	baseOut, baseCost, err := execute(pBase)
	if err != nil {
		return nil, nil, fmt.Errorf("%s baseline run: %w", tg.name, err)
	}
	optOut, optCost, err := execute(pOpt)
	if err != nil {
		return nil, nil, fmt.Errorf("%s optimized run: %w", tg.name, err)
	}
	oc.OutputIdentical = optOut == baseOut
	oc.BaseUnits = baseCost.RuntimeUnits()
	oc.OptUnits = optCost.RuntimeUnits()
	oc.RegionFrees = optCost.RegionFrees

	// Idempotence: optimizing the optimized program must change nothing.
	res2, err := opt.Optimize(pOpt, opt.Options{Passes: passes})
	if err != nil {
		return nil, nil, fmt.Errorf("%s re-optimize: %w", tg.name, err)
	}
	s := res2.Stats
	rewrites := s.Devirtualized + s.RegionSites + s.DeadStoresNulled +
		s.NullStoresRemoved + s.UnreachableRemoved + s.NopsRemoved
	oc.Idempotent = res2.Hash == res.Hash && rewrites == 0

	// Drag before/after on instrumented runs at the same deep-GC interval.
	// The allocation clock is deterministic, so region frees can only move
	// collection earlier: optimized drag must be <= baseline.
	baseProf, _, err := profile.Run(pBase, tg.name+"/base", vm.Config{GCInterval: interval})
	if err != nil {
		return nil, nil, fmt.Errorf("%s baseline profile: %w", tg.name, err)
	}
	baseRep := drag.Analyze(baseProf, drag.Options{})
	optProf, _, err := profile.Run(pOpt, tg.name+"/opt", vm.Config{GCInterval: interval})
	if err != nil {
		return nil, nil, fmt.Errorf("%s optimized profile: %w", tg.name, err)
	}
	optRep := drag.Analyze(optProf, drag.Options{})
	oc.BaseDrag = baseRep.TotalDrag
	oc.OptDrag = optRep.TotalDrag
	return oc, diags, nil
}

// execute runs a program unprofiled and returns its output and cost.
func execute(p *bytecode.Program) (string, vm.Cost, error) {
	m, err := vm.New(p, vm.Config{})
	if err != nil {
		return "", vm.Cost{}, err
	}
	if err := m.Run(); err != nil {
		return "", vm.Cost{}, err
	}
	return m.Output(), m.CostReport(), nil
}

// renderEvidence writes the per-target summaries plus the action trail.
func renderEvidence(stdout io.Writer, format, outPath string, outcomes []outcome, diags []report.Diagnostic) error {
	var sb strings.Builder
	switch format {
	case "sarif":
		s, err := report.SARIF("dragopt", "1", opt.Rules(), diags)
		if err != nil {
			return err
		}
		sb.WriteString(s)
		sb.WriteString("\n")
	case "json":
		data, err := json.MarshalIndent(struct {
			Targets  []outcome           `json:"targets"`
			Evidence []report.Diagnostic `json:"evidence"`
		}{outcomes, diags}, "", "  ")
		if err != nil {
			return err
		}
		sb.Write(data)
		sb.WriteString("\n")
	default:
		for _, oc := range outcomes {
			sb.WriteString(textSummary(&oc))
		}
		if len(diags) > 0 {
			sb.WriteString("evidence:\n")
			for _, d := range diags {
				fmt.Fprintf(&sb, "  [%s] %s:%d %s\n", d.RuleID, d.File, d.Line, d.Message)
			}
		}
	}
	if outPath == "" {
		_, err := io.WriteString(stdout, sb.String())
		return err
	}
	return os.WriteFile(outPath, []byte(sb.String()), 0o644)
}

func textSummary(oc *outcome) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", oc.Name)
	s := oc.Stats
	fmt.Fprintf(&sb, "devirt: %d/%d virtual sites -> direct calls\n", s.Devirtualized, s.VirtualSites)
	fmt.Fprintf(&sb, "region: %d/%d allocation sites proved method-local\n", s.RegionSites, s.AllocSites)
	fmt.Fprintf(&sb, "dce: %d dead stores nulled, %d null stores removed, %d unreachable + %d nops deleted\n",
		s.DeadStoresNulled, s.NullStoresRemoved, s.UnreachableRemoved, s.NopsRemoved)
	if oc.BaseUnits > 0 {
		verdict := "identical"
		if !oc.OutputIdentical {
			verdict = "DIFFERS"
		}
		idem := "yes"
		if !oc.Idempotent {
			idem = "NO"
		}
		fmt.Fprintf(&sb, "verify: output %s; idempotent %s; runtime units %d -> %d; region frees %d\n",
			verdict, idem, oc.BaseUnits, oc.OptUnits, oc.RegionFrees)
		fmt.Fprintf(&sb, "drag: %d -> %d byte^2 (%+.2f%%)\n", oc.BaseDrag, oc.OptDrag, pctDelta(oc.BaseDrag, oc.OptDrag))
	}
	fmt.Fprintf(&sb, "hash: %s\n", oc.Hash)
	return sb.String()
}

func pctDelta(base, opt int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(opt-base) / float64(base)
}

func usage(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "dragopt:", err)
	return cli.ExitUsage
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "dragopt:", err)
	return cli.ExitFailure
}
