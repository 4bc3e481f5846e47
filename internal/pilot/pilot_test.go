package pilot

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"dragprof/internal/analysis"
	"dragprof/internal/bench"
	"dragprof/internal/bytecode"
	"dragprof/internal/drag"
	"dragprof/internal/profile"
	"dragprof/internal/report"
	"dragprof/internal/server"
	"dragprof/internal/store"
	"dragprof/internal/transform"
	"dragprof/internal/vm"
)

func TestMain(m *testing.M) {
	runProfile = memoProfile(runProfile)
	os.Exit(m.Run())
}

// memoProfile wraps a profiler so each (program, run name, config) is
// profiled once per test binary: seeded runs, the sweeps' baseline runs and
// repeat sweeps of unchanged programs share one deterministic run.
func memoProfile(run func(*bytecode.Program, string, vm.Config) (*profile.Profile, *vm.VM, error)) func(*bytecode.Program, string, vm.Config) (*profile.Profile, *vm.VM, error) {
	type result struct {
		prof *profile.Profile
		m    *vm.VM
	}
	var mu sync.Mutex
	done := make(map[string]result)
	return func(p *bytecode.Program, name string, cfg vm.Config) (*profile.Profile, *vm.VM, error) {
		key := fmt.Sprintf("%s|%s|%+v", bytecode.ProgramHash(p), name, cfg)
		mu.Lock()
		defer mu.Unlock()
		if r, ok := done[key]; ok {
			return r.prof, r.m, nil
		}
		prof, m, err := run(p, name, cfg)
		if err == nil {
			done[key] = result{prof, m}
		}
		return prof, m, err
	}
}

// startServer runs an in-process dragserved over a temp store.
func startServer(t *testing.T) *server.Client {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{Store: st, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return server.NewClient(ts.URL)
}

// seedRun profiles one benchmark's original version and pushes its binary
// log, mimicking the fleet runs dragpilot later sweeps.
func seedRun(t *testing.T, c *server.Client, name string) string {
	t.Helper()
	log := benchLog(t, name)
	resp, err := c.PushReader(context.Background(), log, server.PushOptions{})
	if err != nil {
		t.Fatalf("seeding %s: %v", name, err)
	}
	return resp.Run.ID
}

// benchLog profiles one benchmark original and returns its uncompressed
// binary log. The profile run name is the bare bench name so the store
// groups seeded and pushed runs under the same workload.
func benchLog(t *testing.T, name string) []byte {
	t.Helper()
	prof := benchProfile(t, name)
	var buf bytes.Buffer
	if err := profile.WriteBinaryLog(&buf, prof, profile.BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func benchProfile(t *testing.T, name string) *profile.Profile {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := b.Compile(bench.Original, bench.OriginalInput)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := runProfile(cp.Program, name, vm.Config{
		HeapCapacity: 48 << 20,
		GCInterval:   bench.DefaultGCInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// TestPilotReproducesPaperRewrites is the end-to-end loop: seed a server
// with euler and jack fleet profiles, sweep with dragpilot's engine, and
// check it rediscovers the paper's rewrites from served data alone —
// euler's phase-guarded Mesh.scratch kill (≥75% drag saving via the
// server-side diff) and jack's lazy allocation of the Production fields —
// with byte-identical program output.
func TestPilotReproducesPaperRewrites(t *testing.T) {
	c := startServer(t)
	eulerSeed := seedRun(t, c, "euler")
	jackSeed := seedRun(t, c, "jack")

	pr := analysis.NewProver()
	opts := Options{
		Client:    c,
		Workloads: []string{"euler", "jack"},
		Push:      true,
		Prover:    pr,
	}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 2 {
		t.Fatalf("swept %d workloads, want 2", len(res.Workloads))
	}

	euler := res.Workloads[0]
	if euler.Workload != "euler" {
		t.Fatalf("first workload is %s, want euler", euler.Workload)
	}
	if !euler.OutputIdentical {
		t.Error("euler: rewritten output diverged")
	}
	if euler.BaseRun != eulerSeed {
		t.Errorf("euler diff base is %s, want the seeded run %s", euler.BaseRun, eulerSeed)
	}
	if euler.Diff == nil {
		t.Fatal("euler: no server-side diff")
	}
	if euler.DragSavingPct < 75 {
		t.Errorf("euler drag saving %.1f%%, want >= 75%% (the paper's Table 2 scale)", euler.DragSavingPct)
	}
	if !hasApplied(euler, "phase-guarded") {
		t.Errorf("euler: no applied phase-guarded kill; actions: %v", describe(euler))
	}

	jack := res.Workloads[1]
	if jack.Workload != "jack" {
		t.Fatalf("second workload is %s, want jack", jack.Workload)
	}
	if !jack.OutputIdentical {
		t.Error("jack: rewritten output diverged")
	}
	if jack.BaseRun != jackSeed {
		t.Errorf("jack diff base is %s, want the seeded run %s", jack.BaseRun, jackSeed)
	}
	if !hasApplied(jack, "lazy allocation") {
		t.Errorf("jack: no applied lazy allocation; actions: %v", describe(jack))
	}
	if jack.DragSavingPct <= 0 {
		t.Errorf("jack drag saving %.1f%%, want > 0", jack.DragSavingPct)
	}

	if res.SARIF == "" || !strings.Contains(res.SARIF, "dragprof/v1") {
		t.Error("SARIF log missing fingerprints")
	}

	// Sweep again with the same prover: the program content hashes are
	// unchanged, so every site verdict must come from the cache, and the
	// whole run — SARIF included — must be byte-identical.
	res2, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SARIF != res.SARIF {
		t.Error("second sweep produced different SARIF (nondeterministic cache)")
	}
	stats := pr.Stats()
	if stats.AnalysisRuns != 2 {
		t.Errorf("prover ran %d analyses, want 2 (one per program)", stats.AnalysisRuns)
	}
	if stats.CacheHits == 0 {
		t.Error("second sweep hit the cache zero times")
	}
	for _, wr := range res2.Workloads {
		for _, v := range wr.Verdicts {
			if !v.CacheHit {
				t.Errorf("%s: verdict for %q not answered from cache on second sweep", wr.Workload, v.Ref.Desc)
			}
		}
	}
}

// savingFloors are the drag savings the planner must reach on each
// workload, in sweep order.
var savingFloors = []struct {
	name string
	pct  float64
}{
	{"euler", 78.78},
	{"jack", 66.68},
	{"raytrace", 39.08},
	{"jess", 16.70},
	{"juru", 36.54},
}

// checkSavings asserts a sweep over savingFloors' workloads kept every
// program's output and reached every floor.
func checkSavings(t *testing.T, res *Result) {
	t.Helper()
	if len(res.Workloads) != len(savingFloors) {
		t.Fatalf("swept %d workloads, want %d", len(res.Workloads), len(savingFloors))
	}
	for i, f := range savingFloors {
		wr := res.Workloads[i]
		if wr.Workload != f.name {
			t.Fatalf("workload %d is %s, want %s", i, wr.Workload, f.name)
		}
		if !wr.OutputIdentical {
			t.Errorf("%s: rewritten output diverged", f.name)
		}
		// The floors are quoted to two decimals.
		if wr.DragSavingPct < f.pct-0.005 {
			t.Errorf("%s: drag saving %.4f%%, want >= %.2f%%; actions: %v",
				f.name, wr.DragSavingPct, f.pct, describe(wr))
		}
	}
}

// TestPilotServedSweepSavings: the same floors hold when the sites come
// from dragserved and the saving is the server-side diff.
func TestPilotServedSweepSavings(t *testing.T) {
	c := startServer(t)
	var names []string
	for _, f := range savingFloors {
		seedRun(t, c, f.name)
		names = append(names, f.name)
	}
	res, err := Run(context.Background(), Options{Client: c, Workloads: names, Push: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSavings(t, res)
	for _, wr := range res.Workloads {
		if wr.Diff == nil {
			t.Errorf("%s: no server-side diff", wr.Workload)
		}
	}
}

// TestPilotLocalSweep sweeps five workloads in local mode, with no server,
// and pins the one planner at or above the better of the two rewrite paths
// it replaced: profile patterns mapped straight to rewrites, which saved
// 36.54% of juru's drag and none of euler's, and proved rewrites plus
// profile-selected lazy allocation, which saved 78.78% of euler's and none
// of juru's. Every rewritten program must print the original's output, and
// a repeat sweep must render byte-identical SARIF and gap tables.
func TestPilotLocalSweep(t *testing.T) {
	var progs []Program
	for _, f := range savingFloors {
		prog, err := Bench(f.name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	opts := Options{Local: progs, Prover: analysis.NewProver()}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkSavings(t, res)
	for _, wr := range res.Workloads {
		if wr.Diff != nil || wr.HeadRun != "" {
			t.Errorf("%s: local sweep talked to a server", wr.Workload)
		}
	}
	var gap strings.Builder
	GapText(&gap, res)
	if got := strings.Count(gap.String(), "  local\n"); got != len(savingFloors) {
		t.Errorf("gap table names %d local sources, want %d:\n%s", got, len(savingFloors), gap.String())
	}

	res2, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SARIF != res.SARIF {
		t.Error("repeat local sweep produced different SARIF")
	}
	var gap2 strings.Builder
	GapText(&gap2, res2)
	if gap2.String() != gap.String() {
		t.Errorf("repeat local sweep produced a different gap table:\n%s\nvs\n%s", gap.String(), gap2.String())
	}
}

// TestPilotBaselineSuppression: feeding a sweep's own SARIF back as the
// baseline suppresses every finding; CI gates on the new ones only.
func TestPilotBaselineSuppression(t *testing.T) {
	c := startServer(t)
	seedRun(t, c, "euler")

	opts := Options{Client: c, Workloads: []string{"euler"}, Push: false}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewFindings == 0 {
		t.Fatal("sweep produced no findings to baseline")
	}

	baseline, err := report.ReadBaseline([]byte(res.SARIF))
	if err != nil {
		t.Fatal(err)
	}
	opts.Baseline = baseline
	res2, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.NewFindings != 0 {
		t.Errorf("%d findings survived their own baseline", res2.NewFindings)
	}
	if res2.Suppressed == 0 {
		t.Error("baseline suppressed nothing")
	}
	if !strings.Contains(res2.SARIF, `"baselineState": "unchanged"`) {
		t.Error("baselined SARIF carries no unchanged states")
	}
}

// TestPilotSalvagedProfileMatchesFull is the exit-6 path: drive the prove →
// rewrite pipeline from a salvaged partial profile (a binary log truncated
// at a block boundary) and check the proved rewrites match the full-profile
// run — partial fleet data must not change what the analyses prove, only
// how much of the site list is visible.
func TestPilotSalvagedProfileMatchesFull(t *testing.T) {
	full := benchProfile(t, "euler")

	var buf bytes.Buffer
	if err := profile.WriteBinaryLog(&buf, full, profile.BinaryOptions{BlockRecords: 64}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	ends, err := profile.BlockOffsets(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) < 2 {
		t.Fatalf("log has %d blocks, need >= 2 to truncate meaningfully", len(ends))
	}
	// Cut at a mid-list block boundary: the kept prefix decodes intact,
	// the rest of the declared records are gone — the canonical exit-6
	// partial profile.
	cut := ends[(len(ends)-1)/2]
	salvaged, rep, err := profile.SalvageLog(bytes.NewReader(data[:cut]))
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	if rep == nil || rep.Clean() {
		t.Fatal("truncated log salvaged without a fault report")
	}

	fullActions := proveAndRewrite(t, full)
	partActions := proveAndRewrite(t, salvaged)
	if len(fullActions) == 0 {
		t.Fatal("full profile produced no applied rewrites")
	}
	// Every rewrite the salvaged prefix selects must be one the full
	// profile selects too, and the prefix must still surface the headline
	// euler rewrite (Mesh.scratch dominates from the first blocks).
	fullSet := make(map[string]bool, len(fullActions))
	for _, a := range fullActions {
		fullSet[a] = true
	}
	for _, a := range partActions {
		if !fullSet[a] {
			t.Errorf("salvaged profile selected rewrite absent from the full run: %s", a)
		}
	}
	found := false
	for _, a := range partActions {
		if strings.Contains(a, "phase-guarded") {
			found = true
		}
	}
	if !found {
		t.Errorf("salvaged prefix lost the phase-guarded kill; got %v", partActions)
	}
}

// proveAndRewrite mirrors the pilot's per-workload pipeline, driven by a
// local profile instead of served summaries: top nested sites → batch
// prover → transform.Rewrite with every anchored verdict as a candidate.
// Returns the applied actions as "strategy @ site" strings.
func proveAndRewrite(t *testing.T, prof *profile.Profile) []string {
	t.Helper()
	rep := drag.Analyze(prof, drag.Options{})
	var refs []analysis.SiteRef
	patternOf := map[string]string{}
	for i, g := range rep.ByNestedSite {
		if i >= 10 {
			break
		}
		refs = append(refs, analysis.SiteRef{Desc: g.Desc})
		patternOf[g.Desc] = g.Pattern.String()
	}

	b, err := bench.ByName("euler")
	if err != nil {
		t.Fatal(err)
	}
	cpProve, err := b.Compile(bench.Original, bench.OriginalInput)
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := analysis.NewProver().ProveSites(cpProve.Program, refs)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := candidates(verdicts, patternOf)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := b.Compile(bench.Original, bench.OriginalInput)
	if err != nil {
		t.Fatal(err)
	}
	actions, err := transform.Rewrite(cp.Program, cands)
	if err != nil {
		t.Fatal(err)
	}
	var applied []string
	for _, a := range actions {
		if a.Applied {
			applied = append(applied, a.Strategy+" @ "+a.SiteDesc)
		}
	}
	return applied
}

func hasApplied(wr *WorkloadResult, strategyPart string) bool {
	for _, a := range wr.Actions {
		if a.Applied && strings.Contains(a.Strategy, strategyPart) {
			return true
		}
	}
	return false
}

func describe(wr *WorkloadResult) []string {
	var out []string
	for _, a := range wr.Actions {
		out = append(out, a.Strategy+" @ "+a.SiteDesc+" applied="+boolStr(a.Applied)+" ("+a.Reason+")")
	}
	return out
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
