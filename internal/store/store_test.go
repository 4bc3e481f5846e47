package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"dragprof/internal/bytecode"
	"dragprof/internal/drag"
	"dragprof/internal/profile"
	"dragprof/internal/vm"
)

// syntheticProfile builds a deterministic profile spanning several record
// blocks (block size 4096), mirroring the analyzer's test fixture.
func syntheticProfile(name string, n int, seed uint64) *profile.Profile {
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
		}
		switch i % 4 {
		case 0:
			r.LastUseChain = -1
		default:
			r.LastUse = create + 256 + next(1<<15)
			if r.LastUse > r.Collect {
				r.LastUse = r.Collect
			}
			r.LastUseChain = int32(next(5))
			r.Uses = 1 + next(40)
		}
		p.Records = append(p.Records, r)
	}
	return p
}

func encodeLog(t *testing.T, p *profile.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profile.WriteBinaryLog(&buf, p, profile.BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestStoresContentAddressed: a clean ingest stores the exact upload
// bytes under their SHA-256, and the stored canonical dump equals a local
// analysis of the same log.
func TestIngestStoresContentAddressed(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := syntheticProfile("w", 10000, 1)
	log := encodeLog(t, p)

	res, err := st.Ingest(bytes.NewReader(log), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || res.Duplicate {
		t.Fatalf("clean upload: got %+v", res)
	}
	sum := sha256.Sum256(log)
	wantID := hex.EncodeToString(sum[:])
	if res.Meta.ID != wantID {
		t.Errorf("run id = %s, want sha256 of upload %s", res.Meta.ID, wantID)
	}
	if res.Meta.Records != len(p.Records) || res.Meta.Name != "w" {
		t.Errorf("meta = %+v, want %d records name w", res.Meta, len(p.Records))
	}

	stored, err := os.ReadFile(filepath.Join(st.Root(), "shards", "000", "runs", wantID+".log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, log) {
		t.Error("stored log differs from the upload bytes")
	}

	want := drag.Analyze(p, drag.Options{}).CanonicalDump()
	if got := res.Report.CanonicalDump(); !bytes.Equal(got, want) {
		t.Error("sharded ingest report differs from serial analysis")
	}
	canon, err := st.Canonical(wantID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, want) {
		t.Error("stored canonical dump differs from serial analysis")
	}

	// Second identical upload deduplicates.
	res2, err := st.Ingest(bytes.NewReader(log), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Duplicate || res2.Meta.ID != wantID {
		t.Errorf("re-upload: got %+v, want duplicate of %s", res2, wantID)
	}
	if st.NumRuns() != 1 {
		t.Errorf("NumRuns = %d after duplicate upload, want 1", st.NumRuns())
	}
}

// TestIngestSalvagesDamage: a truncated upload is rejected with a salvage
// report, and the stored prefix holds exactly SalvageLog's records.
func TestIngestSalvagesDamage(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := syntheticProfile("w", 10000, 2)
	log := encodeLog(t, p)
	ends, err := profile.BlockOffsets(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) < 2 {
		t.Fatalf("want multi-block log, got %d blocks", len(ends))
	}
	cut := ends[1] + 7 // mid-block truncation
	damaged := log[:cut]

	res, err := st.Ingest(bytes.NewReader(damaged), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Salvage == nil {
		t.Fatal("damaged upload ingested without a salvage report")
	}
	if res.Meta == nil {
		t.Fatal("salvageable prefix was not stored")
	}
	if !res.Meta.Salvaged {
		t.Error("stored run not marked salvaged")
	}

	wantProf, wantSR, serr := profile.SalvageLog(bytes.NewReader(damaged))
	if serr != nil {
		t.Fatal(serr)
	}
	if res.Salvage.RecordsRecovered != wantSR.RecordsRecovered {
		t.Errorf("salvage recovered %d records, local SalvageLog %d",
			res.Salvage.RecordsRecovered, wantSR.RecordsRecovered)
	}
	f, err := st.OpenLog(res.Meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	storedProf, err := profile.ReadLog(f)
	if err != nil {
		t.Fatalf("stored salvaged log does not re-read cleanly: %v", err)
	}
	if len(storedProf.Records) != len(wantProf.Records) {
		t.Fatalf("stored %d records, SalvageLog output %d", len(storedProf.Records), len(wantProf.Records))
	}
	for i := range storedProf.Records {
		if *storedProf.Records[i] != *wantProf.Records[i] {
			t.Fatalf("stored record %d differs from SalvageLog output", i)
		}
	}
	// The stored prefix analyzes identically to the salvaged profile.
	want := drag.Analyze(wantProf, drag.Options{}).CanonicalDump()
	canon, err := st.Canonical(res.Meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, want) {
		t.Error("salvaged run's canonical dump differs from analyzing SalvageLog output")
	}
}

// TestIngestNothingSalvageable: garbage uploads store nothing and report
// the damage without an internal error.
func TestIngestNothingSalvageable(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Ingest(bytes.NewReader([]byte("not a drag log at all")), 2)
	if err != nil {
		t.Fatalf("garbage upload returned internal error: %v", err)
	}
	if res.Meta != nil {
		t.Error("garbage upload stored a run")
	}
	if st.NumRuns() != 0 {
		t.Errorf("NumRuns = %d, want 0", st.NumRuns())
	}
}

// TestIngestTooLarge: an oversized upload is flagged, not stored.
func TestIngestTooLarge(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	log := encodeLog(t, syntheticProfile("w", 10000, 3))
	res, err := st.Ingest(LimitReader(bytes.NewReader(log), 100), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TooLarge {
		t.Errorf("oversized upload: got %+v, want TooLarge", res)
	}
	if st.NumRuns() != 0 {
		t.Error("oversized upload stored a run")
	}
}

// TestCompactionMergesRuns: two runs of the same workload compact into
// per-site summaries whose totals are the sum of the per-run groups, in a
// result independent of ingest order.
func TestCompactionMergesRuns(t *testing.T) {
	logA := encodeLog(t, syntheticProfile("w", 8000, 10))
	logB := encodeLog(t, syntheticProfile("w", 9000, 20))

	summaries := func(order [][]byte) []*SiteSummary {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, log := range order {
			if _, err := st.Ingest(bytes.NewReader(log), 3); err != nil {
				t.Fatal(err)
			}
		}
		if !st.Dirty() {
			t.Fatal("store not dirty after ingest")
		}
		sums, err := st.SiteSummaries(3)
		if err != nil {
			t.Fatal(err)
		}
		if st.Dirty() {
			t.Error("store still dirty after compaction")
		}
		return sums
	}

	ab := summaries([][]byte{logA, logB})
	ba := summaries([][]byte{logB, logA})
	if len(ab) == 0 {
		t.Fatal("compaction produced no summaries")
	}
	if len(ab) != len(ba) {
		t.Fatalf("ingest order changed summary count: %d vs %d", len(ab), len(ba))
	}
	for i := range ab {
		if *ab[i] != *ba[i] {
			t.Errorf("summary %d differs across ingest orders:\n  ab: %+v\n  ba: %+v", i, ab[i], ba[i])
		}
	}
	for _, s := range ab {
		if s.Runs != 2 {
			t.Errorf("site %s merged %d runs, want 2", s.Desc, s.Runs)
		}
	}
}

// TestStoreReopen: a reopened store sees its runs and serves the same
// canonical dumps; compacted summaries survive too.
func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	log := encodeLog(t, syntheticProfile("w", 6000, 4))
	res, err := st.Ingest(bytes.NewReader(log), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SiteSummaries(2); err != nil {
		t.Fatal(err)
	}
	canon, err := st.Canonical(res.Meta.ID)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.NumRuns() != 1 {
		t.Fatalf("reopened store has %d runs, want 1", st2.NumRuns())
	}
	if st2.Dirty() {
		t.Error("reopened store is dirty despite an up-to-date compaction")
	}
	canon2, err := st2.Canonical(res.Meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, canon2) {
		t.Error("canonical dump changed across reopen")
	}
	// Abbreviated ids resolve.
	if _, ok := st2.Get(res.Meta.ID[:12]); !ok {
		t.Error("12-hex-digit id prefix did not resolve")
	}
}
