// Command dragpilot is the autofix loop: it takes the drag-hot allocation
// sites of a program, asks the static analyses (one batch-proved pass per
// program) which of the paper's rewrites are sound, applies them in two
// tiers — rewrites the analyses prove on their own, then rewrites the
// profiled lifetime pattern selects and the analyses validate — re-runs the
// rewritten program, and reports the reachable-but-dead gap each sweep
// closed. Plausible-but-unproved sites come out as SARIF suggestions with
// stable fingerprints; handing the log back via -baseline suppresses
// everything already triaged, so CI can gate on *new* findings only.
//
// With -server, the sites are the ones a dragserved instance has
// accumulated across fleet runs, and the after-profiles are pushed back
// and diffed server-side. Without it, dragpilot runs locally: it profiles
// the benchmarks named by -workloads, or the program given as .mj files,
// in-process and sends that profile's sites down the same path.
//
// Exit codes: 0 success, 1 failure, 2 usage, 3 compile error,
// 7 server unreachable, 8 findings (new un-baselined findings under
// -fail-on-new, or a drag saving below -min-drag-saving).
//
// Usage:
//
//	dragpilot -server URL [-workloads euler,jack] [flags]
//	dragpilot -workloads euler,jack [flags]
//	dragpilot [flags] file.mj...
//
// Flags: [-top n] [-out dir] [-baseline old.sarif] [-push]
// [-interval bytes] [-heap bytes] [-min-drag-saving pct] [-fail-on-new]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dragprof/internal/bytecode"
	"dragprof/internal/cli"
	"dragprof/internal/mj"
	"dragprof/internal/pilot"
	"dragprof/internal/report"
	"dragprof/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dragpilot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	serverURL := fs.String("server", "", "dragserved base URL; without it, profile the programs locally")
	workloads := fs.String("workloads", "", "comma-separated benchmark names (default with -server: every served workload)")
	top := fs.Int("top", 10, "drag-hot sites per workload sent to the prover")
	out := fs.String("out", "", "artifact directory for findings.sarif and gap.txt (default: stdout only)")
	baselinePath := fs.String("baseline", "", "SARIF log whose fingerprints suppress known findings")
	push := fs.Bool("push", true, "with -server, push the rewritten-run profiles back and diff server-side")
	interval := fs.Int64("interval", 0, "deep-GC interval for the profiling runs (default: the benchmark default)")
	heap := fs.Int64("heap", 0, "heap capacity for the profiling runs (default 48 MB)")
	minSaving := fs.Float64("min-drag-saving", 0, "exit 8 unless every swept workload saves at least this drag percentage")
	failOnNew := fs.Bool("fail-on-new", false, "exit 8 when un-baselined findings remain")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitUsage
	}
	files := fs.Args()
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "dragpilot:", msg)
		fmt.Fprintln(stderr, "usage: dragpilot -server URL [flags] | dragpilot -workloads a,b [flags] | dragpilot [flags] file.mj...")
		fs.PrintDefaults()
		return cli.ExitUsage
	}
	names := splitList(*workloads)
	switch {
	case *serverURL != "" && len(files) > 0:
		return usage(".mj files are profiled locally; they cannot be combined with -server")
	case *serverURL == "" && len(files) == 0 && len(names) == 0:
		return usage("give -server, -workloads or .mj files")
	case len(files) > 0 && len(names) > 0:
		return usage("give -workloads or .mj files, not both")
	}

	opts := pilot.Options{
		Top:        *top,
		GCInterval: *interval,
		HeapBytes:  *heap,
		Log:        stderr,
	}
	switch {
	case *serverURL != "":
		opts.Client = server.NewClient(*serverURL)
		opts.Workloads = names
		opts.Push = *push
	case len(files) > 0:
		prog, err := sourceProgram(files)
		if err != nil {
			var ce *compileError
			if errors.As(err, &ce) {
				return fail(stderr, err, cli.ExitCompile)
			}
			return fail(stderr, err, cli.ExitFailure)
		}
		opts.Local = []pilot.Program{prog}
	default:
		for _, name := range names {
			prog, err := pilot.Bench(name)
			if err != nil {
				return usage(err.Error())
			}
			opts.Local = append(opts.Local, prog)
		}
	}
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			return fail(stderr, err, cli.ExitFailure)
		}
		b, err := report.ReadBaseline(data)
		if err != nil {
			return fail(stderr, err, cli.ExitFailure)
		}
		opts.Baseline = b
		fmt.Fprintf(stderr, "dragpilot: baseline %s holds %d fingerprints\n", *baselinePath, b.Size())
	}

	res, err := pilot.Run(context.Background(), opts)
	if err != nil {
		if errors.Is(err, server.ErrUnreachable) {
			return fail(stderr, err, cli.ExitNetwork)
		}
		return fail(stderr, err, cli.ExitFailure)
	}

	var gap strings.Builder
	pilot.GapText(&gap, res)
	fmt.Fprint(stdout, gap.String())
	fmt.Fprintf(stderr, "dragpilot: %d findings (%d new, %d baselined); prover ran %d analyses for %d site queries (%d cache hits)\n",
		res.NewFindings+res.Suppressed, res.NewFindings, res.Suppressed,
		res.Stats.AnalysisRuns, res.Stats.SiteQueries, res.Stats.CacheHits)

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(stderr, err, cli.ExitFailure)
		}
		if err := os.WriteFile(filepath.Join(*out, "findings.sarif"), []byte(res.SARIF), 0o644); err != nil {
			return fail(stderr, err, cli.ExitFailure)
		}
		if err := os.WriteFile(filepath.Join(*out, "gap.txt"), []byte(gap.String()), 0o644); err != nil {
			return fail(stderr, err, cli.ExitFailure)
		}
		fmt.Fprintf(stderr, "dragpilot: artifacts written to %s\n", *out)
	}

	code := cli.ExitOK
	if *minSaving > 0 {
		for _, wr := range res.Workloads {
			if wr.DragSavingPct < *minSaving {
				fmt.Fprintf(stderr, "dragpilot: %s saved %.1f%% drag, below the %.1f%% floor\n",
					wr.Workload, wr.DragSavingPct, *minSaving)
				code = cli.ExitFindings
			}
		}
	}
	if *failOnNew && res.NewFindings > 0 {
		fmt.Fprintf(stderr, "dragpilot: %d new findings not in the baseline\n", res.NewFindings)
		code = cli.ExitFindings
	}
	return code
}

// compileError marks sources that failed to compile.
type compileError struct{ err error }

func (e *compileError) Error() string { return e.err.Error() }

// sourceProgram reads the .mj files as one program, named after the first
// file, and checks that it compiles.
func sourceProgram(files []string) (pilot.Program, error) {
	sources := make(map[string]string, len(files))
	for _, name := range files {
		text, err := os.ReadFile(name)
		if err != nil {
			return pilot.Program{}, err
		}
		sources[name] = string(text)
	}
	compile := func() (*bytecode.Program, error) {
		p, _, err := mj.CompileWithStdlib(files, sources)
		return p, err
	}
	if _, err := compile(); err != nil {
		return pilot.Program{}, &compileError{err}
	}
	name := strings.TrimSuffix(filepath.Base(files[0]), ".mj")
	return pilot.Program{Name: name, Compile: compile}, nil
}

func splitList(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

func fail(stderr io.Writer, err error, code int) int {
	fmt.Fprintln(stderr, "dragpilot:", err)
	return code
}
