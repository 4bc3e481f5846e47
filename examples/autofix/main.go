// Autofix: run the rewrite planner (the paper's projected "future
// optimizing compiler", Section 5) on a benchmark through a local
// dragpilot sweep: profile the original, prove and validate the rewrites
// at the hottest drag sites, apply them, re-profile, and compare with the
// paper-style manual rewrite.
//
// Run with: go run ./examples/autofix [benchmark]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"dragprof/internal/bench"
	"dragprof/internal/drag"
	"dragprof/internal/pilot"
)

func main() {
	name := "raytrace"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	b, err := bench.ByName(name)
	if err != nil {
		log.Fatalf("autofix: %v (known: %v)", err, bench.Names())
	}
	prog, err := pilot.Bench(name)
	if err != nil {
		log.Fatal(err)
	}

	// Profile, prove, rewrite and re-profile in one local sweep.
	res, err := pilot.Run(context.Background(), pilot.Options{Local: []pilot.Program{prog}})
	if err != nil {
		log.Fatal(err)
	}
	wr := res.Workloads[0]
	auto := wr.Local
	fmt.Printf("original:  reachable %.4f MB², in-use %.4f MB²\n", auto.OriginalReachable, auto.OriginalInUse)
	for _, a := range wr.Actions {
		status := "applied"
		if !a.Applied {
			status = "rejected: " + a.Reason
		}
		fmt.Printf("  [%s %s] %s at %s (%s)\n", a.Tier, a.Strategy, status, a.SiteDesc, note(a.Applied, a.Reason))
	}
	fmt.Printf("automatic: reachable %.4f MB²  -> space saving %.2f%%, drag saving %.2f%%\n",
		auto.ReducedReachable, auto.SpaceSavingPct, auto.DragSavingPct)

	// Compare with the manual (paper-style) rewrite.
	orig, err := bench.Run(b, bench.Original, bench.OriginalInput, bench.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	rev, err := bench.Run(b, bench.Revised, bench.OriginalInput, bench.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	revCmp := drag.Compare(orig.Report, rev.Report)
	fmt.Printf("manual:    reachable %.4f MB²  -> space saving %.2f%%, drag saving %.2f%%\n",
		drag.MB2(rev.Report.ReachableIntegral), revCmp.SpaceSavingPct, revCmp.DragSavingPct)
	if revCmp.SpaceSavingPct > 0 {
		fmt.Printf("automatic rewriting recovered %.0f%% of the manual space saving\n",
			auto.SpaceSavingPct/revCmp.SpaceSavingPct*100)
	}
}

func note(applied bool, reason string) string {
	switch {
	case applied && reason != "":
		return reason
	case applied:
		return "ok"
	}
	return "unchanged"
}
