package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ingestOne stores one synthetic run and returns its id.
func ingestOne(t *testing.T, st *Store, name string, n int, seed uint64) string {
	t.Helper()
	res, err := st.Ingest(bytes.NewReader(encodeLog(t, syntheticProfile(name, n, seed))), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Meta == nil {
		t.Fatalf("ingest not stored: %+v", res)
	}
	return res.Meta.ID
}

func quarantineReasons(t *testing.T, st *Store) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, q := range st.Quarantined() {
		out[filepath.Base(q.File)] = q.Reason
	}
	return out
}

func TestRecoveryQuarantinesTornLog(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := ingestOne(t, st, "alpha", 600, 1)
	bad := ingestOne(t, st, "alpha", 600, 2)

	// Flip one byte of the second run's stored log: its content no
	// longer hashes to its id, which is exactly what a torn write that
	// slipped past the journal would look like.
	logPath := filepath.Join(dir, "shards", "000", "runs", bad+".log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with a torn run must succeed: %v", err)
	}
	if _, ok := st2.Get(bad); ok {
		t.Fatal("torn run still served")
	}
	if _, ok := st2.Get(good); !ok {
		t.Fatal("intact run lost during quarantine")
	}
	reasons := quarantineReasons(t, st2)
	if r, ok := reasons[bad+".log"]; !ok || !strings.Contains(r, "torn run log") {
		t.Fatalf("expected torn-log reason for %s, have %v", bad[:12], reasons)
	}
	// Both artifacts moved out of runs/.
	for _, ext := range []string{".json", ".log"} {
		if _, err := os.Stat(filepath.Join(dir, "shards", "000", "runs", bad+ext)); !os.IsNotExist(err) {
			t.Fatalf("%s%s still in runs/", bad[:12], ext)
		}
		if _, err := os.Stat(filepath.Join(st2.QuarantineDir(), bad+ext)); err != nil {
			t.Fatalf("%s%s not in quarantine/: %v", bad[:12], ext, err)
		}
	}
	// A third reopen keeps serving and remembers the recorded reasons.
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st3.Get(good); !ok {
		t.Fatal("intact run lost on second reopen")
	}
	if r := quarantineReasons(t, st3); len(r) == 0 {
		t.Fatal("quarantine history lost on reopen")
	}
}

func TestRecoveryQuarantinesTornMetadata(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := ingestOne(t, st, "alpha", 600, 1)
	metaPath := filepath.Join(dir, "shards", "000", "runs", id+".json")
	if err := os.WriteFile(metaPath, []byte(`{"id": "`+id+`", "name`), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with torn metadata must succeed: %v", err)
	}
	if st2.NumRuns() != 0 {
		t.Fatal("run with torn metadata still served")
	}
	reasons := quarantineReasons(t, st2)
	if r, ok := reasons[id+".json"]; !ok || !strings.Contains(r, "torn run metadata") {
		t.Fatalf("expected torn-metadata reason, have %v", reasons)
	}
}

func TestRecoveryQuarantinesOrphanArtifacts(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := ingestOne(t, st, "alpha", 600, 1)
	// Delete the metadata: the log and canonical become an interrupted,
	// never-committed run.
	if err := os.Remove(filepath.Join(dir, "shards", "000", "runs", id+".json")); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.NumRuns() != 0 {
		t.Fatal("uncommitted run served")
	}
	reasons := quarantineReasons(t, st2)
	if r, ok := reasons[id+".log"]; !ok || !strings.Contains(r, "uncommitted") {
		t.Fatalf("expected uncommitted-artifact reason, have %v", reasons)
	}
}

func TestRecoveryQuarantinesTornCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ingestOne(t, st, "alpha", 600, 1)
	if err := st.Compact(2); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "compact", "*.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("expected one compaction summary, have %v (%v)", paths, err)
	}
	if err := os.WriteFile(paths[0], []byte(`{"name": "alp`), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with torn compaction summary must succeed: %v", err)
	}
	if !st2.Dirty() {
		t.Fatal("workload with quarantined summary not marked stale")
	}
	if err := st2.Compact(2); err != nil {
		t.Fatalf("recompaction after quarantine: %v", err)
	}
	var q QuarantineReason
	found := false
	for _, q = range st2.Quarantined() {
		if strings.Contains(q.Reason, "torn compaction summary") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no torn-compaction reason recorded: %+v", st2.Quarantined())
	}
}

func TestQuarantineReasonFilesParse(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := ingestOne(t, st, "alpha", 600, 1)
	if err := os.Remove(filepath.Join(dir, "shards", "000", "runs", id+".json")); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(st2.QuarantineDir(), "*.reason.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no reason records written: %v (%v)", paths, err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var q QuarantineReason
		if err := json.Unmarshal(data, &q); err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if q.File == "" || q.Reason == "" || q.QuarantinedUnix == 0 {
			t.Fatalf("%s: incomplete record %+v", filepath.Base(path), q)
		}
	}
}

func TestOpenReadOnlyDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root bypasses file permissions")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	_, err := Open(dir)
	if err == nil {
		t.Fatal("Open on a read-only directory must fail")
	}
	if !errors.Is(err, os.ErrPermission) {
		t.Fatalf("want a permission error, got %v", err)
	}
}

// failRenameFS fails the nth Rename — aimed at commit's spool→log rename
// or the canonical/meta swaps — to prove the error path reaps every
// artifact instead of leaking it until the next Open.
type failRenameFS struct {
	OSFS
	calls int
	failN int
}

func (f *failRenameFS) Rename(oldpath, newpath string) error {
	f.calls++
	if f.calls == f.failN {
		return errors.New("injected rename failure")
	}
	return f.OSFS.Rename(oldpath, newpath)
}

func TestCommitFailureLeavesNoDebris(t *testing.T) {
	// Fail each of the two renames a single ingest performs (spool→log,
	// meta swap) in turn.
	for failN := 1; failN <= 2; failN++ {
		fsys := &failRenameFS{}
		dir := t.TempDir()
		st, err := OpenFS(dir, fsys)
		if err != nil {
			t.Fatal(err)
		}
		// Count from the ingest: Open's own rename writes sharding.json.
		fsys.calls, fsys.failN = 0, failN
		_, err = st.Ingest(bytes.NewReader(encodeLog(t, syntheticProfile("alpha", 600, 1))), 2)
		if err == nil {
			t.Fatalf("failN=%d: ingest succeeded despite rename failure", failN)
		}
		if st.NumRuns() != 0 {
			t.Fatalf("failN=%d: partial run visible", failN)
		}
		for _, sub := range []string{"tmp", filepath.Join("shards", "000", "runs")} {
			ents, derr := os.ReadDir(filepath.Join(dir, sub))
			if derr != nil {
				t.Fatal(derr)
			}
			if len(ents) != 0 {
				t.Fatalf("failN=%d: %s/ holds %d leaked file(s) after failed commit", failN, sub, len(ents))
			}
		}
		// The store stays usable: the same upload goes through once the
		// fault clears.
		if _, err := st.Ingest(bytes.NewReader(encodeLog(t, syntheticProfile("alpha", 600, 1))), 2); err != nil {
			t.Fatalf("failN=%d: ingest after cleared fault: %v", failN, err)
		}
	}
}

// A workload whose every run was quarantined must stop serving its old
// compacted summary: Open marks it dirty, and the recompaction over no
// runs leaves it without sites.
func TestRecoveryDropsSummaryOfFullyQuarantinedWorkload(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := ingestOne(t, st, "alpha", 600, 1)
	sites, err := st.SiteSummaries(2)
	if err != nil || len(sites) == 0 {
		t.Fatalf("seed summary: %d sites, err %v", len(sites), err)
	}

	logPath := filepath.Join(dir, "shards", "000", "runs", id+".log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := st2.NumRuns(); n != 0 {
		t.Fatalf("%d runs after quarantining the only one", n)
	}
	sites, err = st2.SiteSummaries(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 0 {
		t.Fatalf("still serving %d sites of a workload with no runs", len(sites))
	}
}

// A run whose log is intact but written in a format version this build's
// reader rejects must be quarantined at Open: served, it would fail every
// merge of its workload, and /sites would fail for every workload.
func TestRecoveryQuarantinesUnreadableLogVersion(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rewrite func(log []byte) []byte // the stored log as an older build left it
		reason  string
	}{
		{"v3", func(log []byte) []byte { log[4] = 3; return log }, "version 3"},
		{"text", func([]byte) []byte {
			return []byte("dragprof-log 2\nname \"beta\"\nfinalclock 100\ngcinterval 102400\n" +
				"classes 0\nmethods 0\nfiles 0\nsites 0\nchains 0\nrecords 0\n")
		}, "not a dragprof binary log"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			alphaID := ingestOne(t, st, "alpha", 600, 1)
			betaID := ingestOne(t, st, "beta", 600, 2)

			// Rewrite beta under its own content id, with a matching
			// commit record, as an older build would have left it.
			runsDir := filepath.Join(dir, "shards", "000", "runs")
			data, err := os.ReadFile(filepath.Join(runsDir, betaID+".log"))
			if err != nil {
				t.Fatal(err)
			}
			metaBlob, err := os.ReadFile(filepath.Join(runsDir, betaID+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var meta RunMeta
			if err := json.Unmarshal(metaBlob, &meta); err != nil {
				t.Fatal(err)
			}
			data = tc.rewrite(data)
			sum := sha256.Sum256(data)
			oldID := hex.EncodeToString(sum[:])
			meta.ID = oldID
			if metaBlob, err = json.Marshal(&meta); err != nil {
				t.Fatal(err)
			}
			for _, ext := range []string{".log", ".json"} {
				if err := os.Remove(filepath.Join(runsDir, betaID+ext)); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(runsDir, oldID+".log"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(runsDir, oldID+".json"), metaBlob, 0o644); err != nil {
				t.Fatal(err)
			}
			// Older builds also wrote a "format" key into every commit
			// record; alpha's must still load.
			alphaMeta := filepath.Join(runsDir, alphaID+".json")
			alphaBlob, err := os.ReadFile(alphaMeta)
			if err != nil {
				t.Fatal(err)
			}
			var record map[string]any
			if err := json.Unmarshal(alphaBlob, &record); err != nil {
				t.Fatal(err)
			}
			record["format"] = "binary"
			if alphaBlob, err = json.Marshal(record); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(alphaMeta, alphaBlob, 0o644); err != nil {
				t.Fatal(err)
			}

			st2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if n := st2.NumRuns(); n != 1 {
				t.Fatalf("%d runs after reopening, want the intact alpha run only", n)
			}
			if _, ok := st2.Get(alphaID); !ok {
				t.Fatal("alpha's commit record with a format key did not load")
			}
			reason := quarantineReasons(t, st2)[oldID+".log"]
			if !strings.Contains(reason, tc.reason) {
				t.Fatalf("quarantine reason %q does not say %q", reason, tc.reason)
			}
			sites, err := st2.SiteSummaries(2)
			if err != nil {
				t.Fatalf("SiteSummaries: %v", err)
			}
			if len(sites) == 0 {
				t.Fatal("no sites for the intact workload")
			}
			for _, s := range sites {
				if s.Name != "alpha" {
					t.Fatalf("site %q of workload %q, want only alpha's", s.Desc, s.Name)
				}
			}
		})
	}
}
