// Command dragprof is phase 1 of the heap-profiling tool: it runs a
// MiniJava program on the instrumented virtual machine (deep GC every
// interval of allocation, per-object trailers) and writes the drag log.
//
// A run halted by a resource budget (-max-alloc, -max-live, -timeout) or a
// runtime fault still writes the log: the trailers of every object live at
// the halt are flushed, so the partial profile analyzes cleanly.
//
// -bench profiles one of the embedded paper benchmarks (javac, db, jack,
// ...) instead of MiniJava source files. -push uploads the written log to
// a dragserved instance, retrying with backoff; an unreachable server
// exits with code 7 and leaves the local log intact for a later re-push.
//
// Exit codes: 0 success, 2 usage, 3 compile error, 4 runtime fault,
// 5 budget exhausted, 7 push failed (server unreachable), 1 anything else.
//
// Usage:
//
//	dragprof [-o drag.log] [-compress=false] [-interval bytes]
//	         [-heap bytes] [-max-alloc bytes] [-max-live bytes]
//	         [-timeout duration] [-sample-rate p] [-sample-seed n]
//	         [-bench name] [-push URL]
//	         [-push-retries n] [-push-timeout duration]
//	         [-push-max-elapsed duration] [file.mj...]
//
// -sample-rate below 1 switches the profiler to byte-weighted sampling:
// an object of s bytes gets a trailer with probability 1-(1-p)^s, the log
// header records the rate, and draganalyze reports unbiased estimates with
// 95% confidence intervals instead of exact figures.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"dragprof"
	"dragprof/internal/bench"
	"dragprof/internal/cli"
	"dragprof/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is dragprof with its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dragprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "drag.log", "drag log output path")
	compress := fs.Bool("compress", true, "gzip the log body")
	interval := fs.Int64("interval", 100<<10, "deep-GC interval in allocated bytes (the paper's 100 KB)")
	heap := fs.Int64("heap", 48<<20, "heap capacity in bytes")
	collector := fs.String("gc", "mark-sweep", "collector: mark-sweep, mark-compact or generational")
	maxAlloc := fs.Int64("max-alloc", 0, "abort after this many allocated bytes (0: unlimited)")
	maxLive := fs.Int64("max-live", 0, "abort when the live heap exceeds this after a full GC (0: unlimited)")
	timeout := fs.Duration("timeout", 0, "abort after this much wall-clock time (0: unlimited)")
	sampleRate := fs.Float64("sample-rate", 1, "per-byte sampling rate in (0, 1]; 1 profiles every object exactly, lower rates record a byte-weighted sample and the analysis reports scaled estimates with confidence intervals")
	sampleSeed := fs.Uint64("sample-seed", 0, "sampler seed (same program, rate and seed reproduce a byte-identical log)")
	benchName := fs.String("bench", "", "profile an embedded paper benchmark ("+strings.Join(bench.Names(), ", ")+") instead of source files")
	push := fs.String("push", "", "after writing the log, upload it to this dragserved base URL")
	pushRetries := fs.Int("push-retries", 3, "push retry attempts after the first")
	pushTimeout := fs.Duration("push-timeout", 60*time.Second, "per-attempt push timeout")
	pushMaxElapsed := fs.Duration("push-max-elapsed", 5*time.Minute, "give up pushing after this much total retry time")
	tenantToken := fs.String("tenant-token", "", "bearer token for a multi-tenant dragserved (sent as Authorization: Bearer)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitUsage
	}
	if !(*sampleRate > 0 && *sampleRate <= 1) {
		fmt.Fprintf(stderr, "dragprof: -sample-rate %v outside (0, 1] (1 = exact profiling)\n", *sampleRate)
		return cli.ExitUsage
	}
	if (*benchName == "") == (fs.NArg() == 0) {
		fmt.Fprintln(stderr, "usage: dragprof [flags] file.mj...   (or dragprof -bench name [flags])")
		fs.PrintDefaults()
		return cli.ExitUsage
	}

	var sources []dragprof.Source
	if *benchName != "" {
		b, err := bench.ByName(*benchName)
		if err != nil {
			return fail(stderr, err, cli.ExitUsage)
		}
		names, texts, err := b.Sources(bench.Original, bench.OriginalInput)
		if err != nil {
			return fail(stderr, err, cli.ExitFailure)
		}
		for _, name := range names {
			sources = append(sources, dragprof.Source{Name: name, Text: texts[name]})
		}
	} else {
		for _, name := range fs.Args() {
			text, err := os.ReadFile(name)
			if err != nil {
				return fail(stderr, err, cli.ExitFailure)
			}
			sources = append(sources, dragprof.Source{Name: name, Text: string(text)})
		}
	}
	prog, err := dragprof.Compile(sources...)
	if err != nil {
		return fail(stderr, err, cli.ExitCompile)
	}
	runName := *benchName
	if runName == "" && fs.NArg() > 0 {
		runName = fs.Arg(0)
	}
	prof, runErr := prog.ProfileRun(dragprof.RunOptions{
		Name:                runName,
		HeapBytes:           *heap,
		Collector:           *collector,
		GCIntervalBytes:     *interval,
		AllocBudgetBytes:    *maxAlloc,
		HeapLiveBudgetBytes: *maxLive,
		WallClockBudget:     *timeout,
		Out:                 stdout,
		SampleRate:          *sampleRate,
		SampleSeed:          *sampleSeed,
	})
	code := cli.ExitOK
	if runErr != nil {
		code = cli.ClassifyRunError(runErr)
		if prof == nil {
			return fail(stderr, runErr, code)
		}
		// The run halted early but the profile is intact — report the
		// abort, write the log anyway.
		fmt.Fprintln(stderr, "dragprof: run aborted:", runErr)
	}

	f, err := os.Create(*out)
	if err != nil {
		return fail(stderr, err, cli.ExitFailure)
	}
	err = prof.WriteBinaryLog(f, *compress)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(stderr, err, cli.ExitFailure)
	}
	fmt.Fprintf(stderr, "dragprof: %d objects, %.2f MB allocated, log written to %s\n",
		prof.NumObjects(), float64(prof.TotalAllocationBytes())/(1<<20), *out)

	if *push != "" {
		if pushCode := pushLog(stderr, *push, *out, *tenantToken, *pushRetries, *pushTimeout, *pushMaxElapsed); pushCode != cli.ExitOK {
			return pushCode
		}
	}
	return code
}

// pushLog uploads the written log to a dragserved instance. The log stays
// on disk either way, so an unreachable server (exit 7) or a bad tenant
// token (exit 9) loses nothing.
func pushLog(stderr io.Writer, serverURL, path, token string, retries int, timeout, maxElapsed time.Duration) int {
	open := func() (io.ReadCloser, error) { return os.Open(path) }
	resp, err := server.Push(context.Background(), serverURL, open, server.PushOptions{
		Retries:    retries,
		Timeout:    timeout,
		MaxElapsed: maxElapsed,
		Token:      token,
	})
	if err != nil {
		var rej *server.RejectedError
		if errors.As(err, &rej) {
			fmt.Fprintln(stderr, "dragprof:", err)
			if rej.Status == http.StatusUnauthorized {
				return cli.ExitAuth
			}
			return cli.ExitFailure
		}
		fmt.Fprintf(stderr, "dragprof: push: %v (log kept at %s, re-push when the server returns)\n", err, path)
		return cli.ExitNetwork
	}
	switch {
	case resp.Duplicate:
		fmt.Fprintf(stderr, "dragprof: pushed to %s: already stored as run %s\n", serverURL, resp.Run.ID)
	default:
		fmt.Fprintf(stderr, "dragprof: pushed to %s: stored as run %s\n", serverURL, resp.Run.ID)
	}
	return cli.ExitOK
}

func fail(stderr io.Writer, err error, code int) int {
	fmt.Fprintln(stderr, "dragprof:", err)
	return code
}
