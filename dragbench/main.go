// Command dragbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload for a fixed amount of work,
// checks every output it produces, and prints its metrics as the last line
// of standard output:
//
//	dragbench --workload profile-exact --seed 1 --seconds 20 --trace 0
//
// --seconds sets how much work a run does (a fixed number of rounds
// derived from it, never from measured speed), --trace 1 switches from the
// end-to-end metrics to the per-layer ones and writes the run's spans to
// .bench_out/. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*harness) error{
	"profile-exact":   func(b *harness) error { return runProfile(b, false) },
	"profile-sampled": func(b *harness) error { return runProfile(b, true) },
	"serve-fleet":     runFleet,
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dragbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: profile-exact, profile-sampled or serve-fleet")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "nominal run length; fixes the number of rounds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics and write spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "dragbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		return 2
	}
	// Stores and traces stay inside the directory the benchmark runs in.
	const out = ".bench_out"
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintf(stderr, "dragbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		fmt.Fprintf(stderr, "dragbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &harness{
		seed:        *seed,
		seconds:     *seconds,
		work:        work,
		log:         stderr,
		readRepeats: 1,
		diffRepeats: 1,
		metrics:     map[string]metric{},
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	err = drive(b)
	var ce *checkError
	if err != nil && !errors.As(err, &ce) {
		fmt.Fprintf(stderr, "dragbench: %s: %v\n", *workload, err)
		return 1
	}
	// A failed check has been counted; the run still reports its tally.
	if b.tr != nil {
		path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		if err := b.tr.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "dragbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "dragbench: spans written to %s\n", path)
	}
	for _, f := range b.checkFailures {
		fmt.Fprintf(stderr, "dragbench: check failed: %s\n", f)
	}
	res := result{
		Correct:   len(b.checkFailures) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "dragbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}
