package faultinject_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"dragprof/internal/bench"
	"dragprof/internal/bytecode"
	"dragprof/internal/drag"
	"dragprof/internal/faultinject"
	"dragprof/internal/profile"
	"dragprof/internal/store"
	"dragprof/internal/vm"
)

// The power-cut property: run a store workload (open → ingest → salvage
// ingest → compact), on a store of one shard and of four, against a CrashFS that cuts power at step k, for
// every k in the workload's step count and in both post-crash disk
// models (drop-unsynced and keep-unsynced). After every crash,
// store.Open on the same directory must succeed, every ingest that was
// acknowledged before the cut must come back byte-identical (log and
// canonical report), and whatever debris the crash left must either be
// reaped or land in quarantine/ with a parseable reason — never be
// served.
//
// The default run drives a small synthetic corpus; DRAGPROF_CHAOS_FULL=1
// (the CI store-chaos job) extends the matrix to all nine benchmark
// workloads. DRAGPROF_CHAOS_DIR archives per-workload chaos summaries
// (crash points, quarantine records) as JSON artifacts.

// chaosWorkload is one named corpus for the crash matrix: a set of clean
// logs (ingested in order) plus one damaged upload for the salvage path,
// played against a store of the given shard count.
type chaosWorkload struct {
	name    string
	shards  int
	clean   [][]byte
	damaged []byte
}

// ackedRun captures the durable promise made by one acknowledged ingest.
type ackedRun struct {
	ID        string
	Log       []byte
	Canonical []byte
}

// runChaosScenario plays the workload against fsys, recording every
// acknowledged ingest. Errors are expected (that is the point); the
// returned acks are the promises the crashed store must keep.
func runChaosScenario(dir string, fsys store.FS, w chaosWorkload) []ackedRun {
	var acked []ackedRun
	st, err := store.OpenShardedFS(dir, w.shards, fsys)
	if err != nil {
		return nil
	}
	ingest := func(log []byte) {
		res, err := st.Ingest(bytes.NewReader(log), 2)
		if err != nil || res.Meta == nil {
			return
		}
		a := ackedRun{ID: res.Meta.ID}
		f, err := st.OpenLog(res.Meta.ID)
		if err != nil {
			return
		}
		a.Log, err = io.ReadAll(f)
		f.Close()
		if err != nil {
			return
		}
		rep, err := st.Report(res.Meta.ID, drag.Options{}, 0)
		if err != nil {
			return
		}
		a.Canonical = rep.CanonicalDump()
		acked = append(acked, a)
	}
	for _, log := range w.clean {
		ingest(log)
	}
	ingest(w.damaged)
	st.Compact(2)
	return acked
}

// countChaosSteps dry-runs the scenario to learn its mutation-step count.
func countChaosSteps(t *testing.T, w chaosWorkload) int {
	t.Helper()
	fs := faultinject.NewCrashFS(faultinject.CrashFSOptions{})
	if acks := runChaosScenario(t.TempDir(), fs, w); len(acks) == 0 {
		t.Fatal("dry run acknowledged nothing; scenario is broken")
	}
	n := fs.Steps()
	if n < 10 {
		t.Fatalf("dry run took only %d steps; seam not engaged", n)
	}
	return n
}

// verifyCrashedStore reopens the directory the crash left behind and
// checks the durability contract.
func verifyCrashedStore(t *testing.T, dir string, acked []ackedRun) []store.QuarantineReason {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	for _, a := range acked {
		m, ok := st.Get(a.ID)
		if !ok {
			t.Fatalf("acknowledged run %s lost", a.ID[:12])
		}
		f, err := st.OpenLog(m.ID)
		if err != nil {
			t.Fatalf("acknowledged run %s log: %v", a.ID[:12], err)
		}
		got, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatalf("acknowledged run %s log: %v", a.ID[:12], err)
		}
		if !bytes.Equal(got, a.Log) {
			t.Fatalf("acknowledged run %s log differs after crash", a.ID[:12])
		}
		canonRep, err := st.Report(m.ID, drag.Options{}, 0)
		if err != nil {
			t.Fatalf("acknowledged run %s canonical: %v", a.ID[:12], err)
		}
		canon := canonRep.CanonicalDump()
		if !bytes.Equal(canon, a.Canonical) {
			t.Fatalf("acknowledged run %s canonical report differs after crash", a.ID[:12])
		}
	}
	// Whatever was quarantined must carry a parseable reason record.
	reasons, err := filepath.Glob(filepath.Join(st.QuarantineDir(), "*.reason.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out []store.QuarantineReason
	for _, path := range reasons {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var q store.QuarantineReason
		if err := json.Unmarshal(data, &q); err != nil {
			t.Fatalf("quarantine reason %s does not parse: %v", filepath.Base(path), err)
		}
		if q.File == "" || q.Reason == "" {
			t.Fatalf("quarantine reason %s is empty: %+v", filepath.Base(path), q)
		}
		out = append(out, q)
	}
	// The recovery scan reaps every stale spool.
	if ents, err := os.ReadDir(filepath.Join(dir, "tmp")); err != nil || len(ents) != 0 {
		t.Fatalf("tmp/ not reaped after recovery: %d entries, %v", len(ents), err)
	}
	return out
}

// chaosSummary is the artifact the CI store-chaos job archives.
type chaosSummary struct {
	Workload    string                   `json:"workload"`
	Steps       int                      `json:"steps"`
	Modes       []string                 `json:"modes"`
	Quarantined []store.QuarantineReason `json:"quarantined"`
}

func writeChaosArtifact(t *testing.T, dir string, sum chaosSummary) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	name := strings.ReplaceAll(sum.Workload, "/", "_")
	if err := os.WriteFile(filepath.Join(dir, "chaos-"+name+".json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func runCrashMatrix(t *testing.T, w chaosWorkload) {
	steps := countChaosSteps(t, w)
	sum := chaosSummary{Workload: w.name, Steps: steps, Modes: []string{"drop", "keep"}}
	for _, keep := range []bool{false, true} {
		mode := "drop"
		if keep {
			mode = "keep"
		}
		for k := 1; k <= steps; k++ {
			dir := t.TempDir()
			fs := faultinject.NewCrashFS(faultinject.CrashFSOptions{CrashAtStep: k, KeepUnsynced: keep})
			acked := runChaosScenario(dir, fs, w)
			if !fs.Crashed() {
				t.Fatalf("%s step %d: crash never fired (scenario took %d steps)", mode, k, fs.Steps())
			}
			q := verifyCrashedStore(t, dir, acked)
			if len(sum.Quarantined) < 16 {
				sum.Quarantined = append(sum.Quarantined, q...)
			}
		}
	}
	if dir := os.Getenv("DRAGPROF_CHAOS_DIR"); dir != "" {
		writeChaosArtifact(t, dir, sum)
	}
}

// syntheticChaosProfile mirrors the store tests' fixture: deterministic,
// multi-block, small enough that crashing at every step stays fast.
func syntheticChaosProfile(name string, n int, seed uint64) *profile.Profile {
	p := &profile.Profile{
		Name:        name,
		FinalClock:  int64(n) * 96,
		GCInterval:  8 << 10,
		ClassNames:  []string{"A", "B", "C"},
		MethodNames: []string{"Main.main", "A.build", "B.use", "C.leak"},
		MethodFiles: []string{"main.mj", "a.mj", "b.mj", "c.mj"},
	}
	for i := 0; i < 6; i++ {
		p.Sites = append(p.Sites, bytecode.Site{
			ID: int32(i), Method: int32(i % 4), Line: int32(10 + i),
			What: "T" + string(rune('0'+i)), Desc: "site-" + string(rune('0'+i)),
		})
	}
	p.ChainNodes = []vm.ChainNode{
		{Parent: -1, Method: 0, Line: 11},
		{Parent: 0, Method: 1, Line: 12},
		{Parent: 1, Method: 2, Line: 13},
		{Parent: 0, Method: 3, Line: 14},
		{Parent: 3, Method: 2, Line: 15},
	}
	next := func(mod int64) int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int64(seed>>33) % mod
	}
	for i := 0; i < n; i++ {
		create := int64(i) * 96
		r := &profile.Record{
			AllocID: uint64(i + 1),
			Class:   int32(i % 3),
			Size:    16 + next(200)*8,
			Site:    int32(i % 6),
			Chain:   int32(next(5)),
			Create:  create,
			Collect: create + 512 + next(1<<16),
			Uses:    1 + next(40),
		}
		r.LastUse = r.Create + 256
		r.LastUseChain = int32(next(5))
		p.Records = append(p.Records, r)
	}
	return p
}

func encodeChaosLog(t *testing.T, p *profile.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profile.WriteBinaryLog(&buf, p, profile.BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// damagePrefix cuts a log shortly past a block boundary so salvage
// recovers a non-empty prefix (when the log has more than one block) or
// nothing storable (when it does not) — both are valid scenario legs.
func damagePrefix(t *testing.T, log []byte) []byte {
	t.Helper()
	ends, err := profile.BlockOffsets(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) > 1 {
		return log[:ends[len(ends)/2]+7]
	}
	return log[:len(log)*2/3]
}

func TestPowerCutMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix replays the scenario per step; skipped in -short")
	}
	full := syntheticChaosProfile("chaos-alpha", 5000, 1)
	logA := encodeChaosLog(t, full)
	logB := encodeChaosLog(t, syntheticChaosProfile("chaos-alpha", 1200, 2))
	// Four shards put the rename from the root tmp/ into a shard's runs/
	// under the same crash proof as the single-shard store.
	for _, n := range []int{1, 4} {
		w := chaosWorkload{
			name:    "synthetic",
			shards:  n,
			clean:   [][]byte{logA, logB},
			damaged: damagePrefix(t, logA),
		}
		if n > 1 {
			w.name = fmt.Sprintf("synthetic-%d-shards", n)
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			runCrashMatrix(t, w)
		})
	}

	if os.Getenv("DRAGPROF_CHAOS_FULL") == "" {
		return
	}
	logs, err := bench.WorkloadLogs()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range logs {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			runCrashMatrix(t, chaosWorkload{
				name:    wl.Name,
				shards:  1,
				clean:   [][]byte{wl.Bin},
				damaged: damagePrefix(t, wl.Bin),
			})
		})
	}
}

// TestDiskFaultMatrix injects ENOSPC/EIO at every step of a clean ingest
// (no crash), into a store of one shard and of four: the store must fail with a typed error wrapping both the
// errno and faultinject.ErrInjected, leave no spool behind and no
// partial run visible, and reopen cleanly.
func TestDiskFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("disk-fault matrix replays the scenario per step; skipped in -short")
	}
	log := encodeChaosLog(t, syntheticChaosProfile("chaos-enospc", 5000, 3))

	scenario := func(dir string, shards int, fsys store.FS) (ackErr error, acked bool) {
		st, err := store.OpenShardedFS(dir, shards, fsys)
		if err != nil {
			return err, false
		}
		res, err := st.Ingest(bytes.NewReader(log), 2)
		if err != nil {
			if st.NumRuns() != 0 {
				t.Fatalf("failed ingest left %d runs visible", st.NumRuns())
			}
			return err, false
		}
		if res.Meta == nil || res.Salvage != nil {
			t.Fatalf("clean log not stored cleanly: %+v", res)
		}
		return nil, true
	}

	for _, shards := range []int{1, 4} {
		dry := faultinject.NewCrashFS(faultinject.CrashFSOptions{})
		if err, ok := scenario(t.TempDir(), shards, dry); err != nil || !ok {
			t.Fatalf("dry run failed: %v", err)
		}
		steps := dry.Steps()

		errnos := []error{syscall.ENOSPC, syscall.EIO}
		for k := 1; k <= steps; k++ {
			for _, errno := range errnos {
				shards, k, errno := shards, k, errno
				name := fmt.Sprintf("step-%d-%v", k, errno)
				if shards > 1 {
					name = fmt.Sprintf("shards-%d-%s", shards, name)
				}
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					fs := faultinject.NewCrashFS(faultinject.CrashFSOptions{Faults: map[int]error{k: errno}})
					err, acked := scenario(dir, shards, fs)
					if err != nil {
						if !errors.Is(err, errno) {
							t.Fatalf("fault surfaced untyped: %v", err)
						}
						if !errors.Is(err, faultinject.ErrInjected) {
							t.Fatalf("fault lost the injection sentinel: %v", err)
						}
					}
					// Satellite regression: a failed commit must reap its
					// spool immediately, not wait for the next Open.
					if err != nil {
						ents, derr := os.ReadDir(filepath.Join(dir, "tmp"))
						if derr == nil && len(ents) != 0 {
							t.Fatalf("failed ingest leaked %d spool file(s)", len(ents))
						}
						// And no orphan artifacts in any shard's runs/ either.
						rents, derr := filepath.Glob(filepath.Join(dir, "shards", "*", "runs", "*"))
						if derr == nil && len(rents) != 0 {
							t.Fatalf("failed ingest left %d artifact(s) in runs/", len(rents))
						}
					}
					st, oerr := store.Open(dir)
					if oerr != nil {
						t.Fatalf("Open after fault: %v", oerr)
					}
					if acked && st.NumRuns() != 1 {
						t.Fatalf("acknowledged run lost after fault: %d runs", st.NumRuns())
					}
				})
			}
		}
	}
}
