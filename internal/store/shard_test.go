package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dragprof/internal/drag"
)

// workloadNames mirrors the nine benchmark workloads the differential CI
// jobs sweep.
var workloadNames = []string{"javac", "db", "jack", "raytrace", "jess", "mc", "euler", "juru", "analyzer"}

// ingestAll pushes two deterministic runs of every workload into st and
// returns the stored ids.
func ingestAll(t *testing.T, st RunStore) []string {
	t.Helper()
	var ids []string
	for wi, name := range workloadNames {
		for seed := uint64(1); seed <= 2; seed++ {
			log := encodeLog(t, syntheticProfile(name, 40+wi*7, seed))
			res, err := st.Ingest(bytes.NewReader(log), 2)
			if err != nil {
				t.Fatalf("ingest %s seed %d: %v", name, seed, err)
			}
			if res.Meta == nil {
				t.Fatalf("ingest %s seed %d: no meta", name, seed)
			}
			ids = append(ids, res.Meta.ID)
		}
	}
	return ids
}

// TestShardedDifferentialByteIdentity is the merge-on-read oracle: a
// sharded store and a flat store fed the same uploads must answer every
// query byte-identically — run listings, canonical reports, recomputed
// reports, and cross-run site summaries.
func TestShardedDifferentialByteIdentity(t *testing.T) {
	flat, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := OpenSharded(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, flat)
	ids := ingestAll(t, sharded)

	flatRuns, shardRuns := flat.Runs(), sharded.Runs()
	if len(flatRuns) != len(shardRuns) {
		t.Fatalf("run counts differ: flat %d sharded %d", len(flatRuns), len(shardRuns))
	}
	for i := range flatRuns {
		if flatRuns[i].ID != shardRuns[i].ID {
			t.Fatalf("run order differs at %d: %s vs %s", i, flatRuns[i].ID, shardRuns[i].ID)
		}
	}
	if flat.NumRuns() != sharded.NumRuns() || flat.TotalBytes() != sharded.TotalBytes() {
		t.Fatalf("stats differ: runs %d/%d bytes %d/%d",
			flat.NumRuns(), sharded.NumRuns(), flat.TotalBytes(), sharded.TotalBytes())
	}

	for _, id := range ids {
		fcRep, err := flat.Report(id, drag.Options{}, 0)
		if err != nil {
			t.Fatalf("flat canonical %s: %v", id, err)
		}
		fc := fcRep.CanonicalDump()
		scRep, err := sharded.Report(id, drag.Options{}, 0)
		if err != nil {
			t.Fatalf("sharded canonical %s: %v", id, err)
		}
		sc := scRep.CanonicalDump()
		if !bytes.Equal(fc, sc) {
			t.Fatalf("canonical %s differs between flat and sharded", id)
		}
		fr, err := flat.Report(id, drag.Options{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := sharded.Report(id, drag.Options{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		fj, _ := json.Marshal(summarizeReport(fr))
		sj, _ := json.Marshal(summarizeReport(sr))
		if !bytes.Equal(fj, sj) {
			t.Fatalf("report %s differs:\nflat: %s\nsharded: %s", id, fj, sj)
		}
	}

	fs, err := flat.SiteSummaries(2)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sharded.SiteSummaries(2)
	if err != nil {
		t.Fatal(err)
	}
	fj, _ := json.MarshalIndent(fs, "", " ")
	sj, _ := json.MarshalIndent(ss, "", " ")
	if !bytes.Equal(fj, sj) {
		t.Fatalf("site summaries differ:\nflat:\n%s\nsharded:\n%s", fj, sj)
	}
	if len(fs) == 0 {
		t.Fatal("no site summaries produced")
	}
}

// summarizeReport projects the fields a byte-identity check cares about
// into a marshal-stable shape.
func summarizeReport(r *drag.Report) map[string]any {
	sites := make([]map[string]any, 0, len(r.ByNestedSite))
	for _, g := range r.ByNestedSite {
		sites = append(sites, map[string]any{
			"desc": g.Desc, "drag": g.Drag, "bytes": g.Bytes,
			"count": g.Count, "pattern": g.Pattern.String(),
		})
	}
	return map[string]any{
		"name": r.Name, "totalDrag": r.TotalDrag,
		"reach": r.ReachableIntegral, "inUse": r.InUseIntegral,
		"sites": sites,
	}
}

// TestShardedGetPrefix checks cross-shard prefix resolution: unique >=8
// hex digit prefixes resolve, short or ambiguous ones do not.
func TestShardedGetPrefix(t *testing.T) {
	sharded, err := OpenSharded(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := ingestAll(t, sharded)
	for _, id := range ids {
		m, ok := sharded.Get(id[:12])
		if !ok || m.ID != id {
			t.Fatalf("prefix %s did not resolve to %s", id[:12], id)
		}
	}
	if _, ok := sharded.Get(ids[0][:4]); ok {
		t.Fatal("short prefix resolved; want rejection")
	}
	if _, ok := sharded.Get(strings.Repeat("0", 8)); ok {
		t.Fatal("unknown prefix resolved")
	}
}

// TestShardedDuplicateAcrossIngest checks routing-level dedup: the same
// bytes pushed twice land once, flagged duplicate, in the same shard.
func TestShardedDuplicateAcrossIngest(t *testing.T) {
	sharded, err := OpenSharded(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	log := encodeLog(t, syntheticProfile("javac", 50, 7))
	first, err := sharded.Ingest(bytes.NewReader(log), 2)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sharded.Ingest(bytes.NewReader(log), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Duplicate || second.Meta.ID != first.Meta.ID {
		t.Fatalf("second push not detected as duplicate: %+v", second)
	}
	if sharded.NumRuns() != 1 {
		t.Fatalf("duplicate push grew the store to %d runs", sharded.NumRuns())
	}
}

// TestShardedQuarantineStableAcrossShards corrupts one stored log per
// shard, reopens, and checks Quarantined() is deterministic: sorted by
// file name and identical across repeated opens — the readiness stats a
// fleet dashboard polls must not depend on shard scan interleaving.
func TestShardedQuarantineStableAcrossShards(t *testing.T) {
	dir := t.TempDir()
	sharded, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, sharded)

	// Flip a byte in the first stored log of every non-empty shard.
	corrupted := 0
	for i := 0; i < sharded.NumShards(); i++ {
		runs := sharded.Shard(i).Runs()
		if len(runs) == 0 {
			continue
		}
		path := filepath.Join(dir, "shards", shardName(i), "runs", runs[0].ID+".log")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted < 2 {
		t.Fatalf("only %d shards held runs; fixture too small", corrupted)
	}

	re1, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	q1 := re1.Quarantined()
	if len(q1) == 0 {
		t.Fatal("corrupted logs not quarantined")
	}
	for i := 1; i < len(q1); i++ {
		if q1[i].File < q1[i-1].File {
			t.Fatalf("quarantine records unsorted: %q after %q", q1[i].File, q1[i-1].File)
		}
	}
	re2, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	q2 := re2.Quarantined()
	if len(q1) != len(q2) {
		t.Fatalf("quarantine listing unstable across opens: %d vs %d", len(q1), len(q2))
	}
	for i := range q1 {
		if q1[i].File != q2[i].File || q1[i].Reason != q2[i].Reason || q1[i].RunID != q2[i].RunID {
			t.Fatalf("quarantine record %d differs across opens:\n%+v\n%+v", i, q1[i], q2[i])
		}
	}
}

func shardName(i int) string {
	return []string{"000", "001", "002", "003"}[i]
}
