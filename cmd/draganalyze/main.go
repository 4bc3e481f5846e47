// Command draganalyze is phase 2 of the heap-profiling tool: it reads a
// drag log written by cmd/dragprof and prints the allocation sites sorted
// by their potential space saving, each classified against the paper's
// lifetime patterns with the suggested rewrite.
//
// The log is binary v4, gzipped or not; input without its magic, such as
// the text logs of earlier builds, is refused. Site aggregation fans out
// over GOMAXPROCS workers by default (-workers) and is byte-identical at
// every worker count. -salvage analyzes as much
// of a truncated or corrupted log as its checksums vouch for, flagging the
// output as partial data; -format selects text, json or sarif reports, or
// canonical — the exact-hex-float report dump that dragserved serves for
// the same log, the cross-network determinism oracle.
//
// Exit codes: 0 success, 2 usage, 6 damaged log analyzed from its salvaged
// prefix (-salvage), 1 anything else.
//
// Usage:
//
//	draganalyze [-top n] [-depth n] [-curve] [-anchors] [-workers n]
//	            [-salvage] [-format text|json|sarif|canonical] drag.log...
//
// Several logs aggregate into one report (merged in argument order through
// the same accumulator path dragserved's compactor uses); all of them must
// come from the same build and share one sampling rate — mixing sampled and
// exact logs is a usage error. -salvage, -anchors and -curve apply to a
// single log only. Sampled logs (dragprof -sample-rate) report
// inverse-probability-scaled estimates with 95% confidence intervals.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dragprof/internal/cli"
	"dragprof/internal/drag"
	"dragprof/internal/profile"
	"dragprof/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("draganalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "number of allocation sites to print")
	depth := fs.Int("depth", 4, "nested allocation site depth (call-chain level)")
	curve := fs.Bool("curve", false, "also print the reachable/in-use curve as CSV")
	anchors := fs.Bool("anchors", false, "also print anchor allocation sites (application-code frames) with lifetime histograms")
	workers := fs.Int("workers", 0, "parallel aggregation workers (0: GOMAXPROCS)")
	salvage := fs.Bool("salvage", false, "recover what the log's checksums vouch for instead of failing on damage")
	format := fs.String("format", "text", "report format: text, json, sarif or canonical")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitUsage
	}
	switch *format {
	case "text", "json", "sarif", "canonical":
	default:
		fmt.Fprintf(stderr, "draganalyze: unknown -format %q (want text, json, sarif or canonical)\n", *format)
		return cli.ExitUsage
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: draganalyze [flags] drag.log...")
		fs.PrintDefaults()
		return cli.ExitUsage
	}
	if fs.NArg() > 1 && (*salvage || *anchors || *curve) {
		fmt.Fprintln(stderr, "draganalyze: -salvage, -anchors and -curve need a single log")
		return cli.ExitUsage
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	defer f.Close()

	var (
		prof *profile.Profile
		sr   *profile.SalvageReport
	)
	if *salvage {
		prof, sr, err = profile.SalvageLog(f)
		if err != nil {
			fmt.Fprintln(stderr, "draganalyze: nothing salvageable:", err)
			return cli.ExitFailure
		}
	} else {
		prof, err = profile.ReadLog(f)
		if err != nil {
			fmt.Fprintln(stderr, "draganalyze:", err)
			fmt.Fprintln(stderr, "draganalyze: hint: -salvage recovers the intact prefix of a damaged log")
			return cli.ExitFailure
		}
	}

	// Multi-log aggregation folds every further log and merges it in
	// argument order (the same merge path dragserved's compactor uses).
	// All logs must share one sampling rate — an exact log mixed into a
	// sampled aggregation (or two different rates) would combine figures
	// on different estimator scales into one meaningless total.
	opts := drag.Options{NestDepth: *depth}
	acc := drag.Fold(prof, opts, *workers)
	numObjects := len(prof.Records)
	for _, arg := range fs.Args()[1:] {
		next, err := readLogFile(arg)
		if err != nil {
			return fail(stderr, err)
		}
		if code, msg := checkAggregate(fs.Arg(0), prof, arg, next); code != cli.ExitOK {
			fmt.Fprintln(stderr, "draganalyze:", msg)
			return code
		}
		acc.Merge(drag.Fold(next, opts, *workers))
		numObjects += len(next.Records)
	}
	rep := acc.Report()

	partial := sr != nil && !sr.Clean()
	switch *format {
	case "canonical":
		// The exact report state: byte-identical to the canonical dump a
		// dragserved instance serves for the same log.
		stdout.Write(rep.CanonicalDump())
	case "json", "sarif":
		if err := renderDiagnostics(stdout, *format, rep, sr, *top); err != nil {
			return fail(stderr, err)
		}
	default:
		if partial {
			fmt.Fprintf(stdout, "WARNING: partial data — %s\n\n", sr.Summary())
		}
		renderText(stdout, rep, prof, numObjects, *top, *anchors, *curve)
	}
	if partial {
		return cli.ExitSalvaged
	}
	return cli.ExitOK
}

// renderText prints the report via the shared renderer (the same code path
// dragserved's text endpoint uses), plus the CLI-only anchor and curve
// sections.
func renderText(w io.Writer, rep *drag.Report, prof *profile.Profile, numObjects, top int, anchors, curve bool) {
	report.DragText(w, rep, numObjects, top)

	if anchors {
		fmt.Fprintln(w, "anchor allocation sites (application code):")
		groups := drag.AnchorGroups(prof, rep.Options)
		if top > len(groups) {
			top = len(groups)
		}
		for i, g := range groups[:top] {
			share := 0.0
			if rep.TotalDrag > 0 {
				share = float64(g.Drag) / float64(rep.TotalDrag)
			}
			fmt.Fprintf(w, "#%d  %s\n", i+1, g.Desc)
			fmt.Fprintf(w, "    drag %.4f MB² (%.1f%%), %d objects (%d never used)\n",
				mb2(g.Drag), share*100, g.Count, g.NeverUsed)
			fmt.Fprintf(w, "    drag-time histogram:   %s\n", g.DragHist.String())
			fmt.Fprintf(w, "    in-use-time histogram: %s\n", g.InUseHist.String())
			fmt.Fprintf(w, "    pattern: %s\n\n", g.Pattern)
		}
	}

	if curve {
		c := drag.BuildCurve(prof, 512)
		fmt.Fprintln(w, "alloc_bytes,reachable_bytes,inuse_bytes")
		for i := range c.Times {
			fmt.Fprintf(w, "%d,%d,%d\n", c.Times[i], c.Reachable[i], c.InUse[i])
		}
	}
}

// renderDiagnostics emits the top drag sites as report diagnostics through
// the renderers shared with dragserved.
func renderDiagnostics(w io.Writer, format string, rep *drag.Report, sr *profile.SalvageReport, top int) error {
	diags := report.DragDiagnostics(rep, sr, top)
	var out string
	var err error
	if format == "sarif" {
		out, err = report.SARIF("draganalyze", "3", report.DragRules(), diags)
	} else {
		out, err = report.DiagnosticsJSON(diags)
	}
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, out)
	return err
}

// readLogFile reads one additional log for the multi-log aggregation.
func readLogFile(path string) (*profile.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return profile.ReadLog(f)
}

// checkAggregate applies drag.CheckMergeable to a further log of a
// multi-log aggregation and returns the exit code and message for a
// refusal: mixed sample rates are a usage error, different site tables a
// failure. Chain tables may differ (two sampled runs of one build intern
// different chains).
func checkAggregate(first string, p *profile.Profile, arg string, next *profile.Profile) (int, string) {
	err := drag.CheckMergeable(p, next)
	switch {
	case err == nil:
		return cli.ExitOK, ""
	case errors.Is(err, drag.ErrRateMismatch):
		return cli.ExitUsage, fmt.Sprintf("cannot aggregate %s (sample rate %g) with %s (sample rate %g): mixing sampled and exact logs scales sites incomparably — re-profile at one rate",
			first, p.EffectiveSampleRate(), arg, next.EffectiveSampleRate())
	default:
		return cli.ExitFailure, fmt.Sprintf("cannot aggregate %s with %s: site tables differ (logs come from different builds)", first, arg)
	}
}

func mb2(v int64) float64 { return float64(v) / (1 << 40) }

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "draganalyze:", err)
	return cli.ExitFailure
}
