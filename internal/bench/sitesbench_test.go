package bench

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dragprof/internal/store"
)

// javacLog profiles exact javac on one SEED value at a 100 KB deep-GC
// interval and returns its binary log.
func javacLog(b *testing.B, seed int) []byte {
	b.Helper()
	javac, err := ByName("javac")
	if err != nil {
		b.Fatal(err)
	}
	bc := *javac
	bc.OrigParams = Params{}
	for k, v := range javac.OrigParams {
		bc.OrigParams[k] = v
	}
	bc.OrigParams["SEED"] = seed
	r, err := Run(&bc, Original, OriginalInput, RunConfig{GCInterval: 100 << 10})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := profileWriteBinary(&buf, r.Profile); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// copyDir copies a directory tree.
func copyDir(from, to string) error {
	return filepath.WalkDir(from, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		src, err := os.Open(path)
		if err != nil {
			return err
		}
		defer src.Close()
		out, err := os.Create(dst)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, src); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// BenchmarkSitesAfterPush times the /sites that follows a push in
// dragbench's serve-fleet round: a 4-shard store holding one compacted
// exact javac run per shard takes a fifth javac run, and SiteSummaries
// brings the javac summary up to date. Each iteration ingests into a
// fresh copy of the seeded store outside the timer. logs-read/op counts
// the logs the compaction folded.
func BenchmarkSitesAfterPush(b *testing.B) {
	seedDir := filepath.Join(b.TempDir(), "seed")
	seeded, err := store.OpenSharded(seedDir, 4)
	if err != nil {
		b.Fatal(err)
	}
	var fifth []byte
	for seed := 1; seeded.NumRuns() < 4 || fifth == nil; seed++ {
		if seed > 100 {
			b.Fatal("no SEED value in 1..100 fills the four shards")
		}
		log := javacLog(b, seed)
		probe, err := store.OpenSharded(b.TempDir(), 4)
		if err != nil {
			b.Fatal(err)
		}
		res, err := probe.Ingest(bytes.NewReader(log), 2)
		if err != nil || !res.Clean() {
			b.Fatalf("probe ingest: %+v, %v", res, err)
		}
		shard := -1
		for i := 0; i < 4; i++ {
			if _, ok := probe.Shard(i).Get(res.Meta.ID); ok {
				shard = i
			}
		}
		if len(seeded.Shard(shard).Runs()) == 0 {
			if _, err := seeded.Ingest(bytes.NewReader(log), 2); err != nil {
				b.Fatal(err)
			}
		} else if fifth == nil {
			fifth = log
		}
	}
	if err := seeded.Compact(2); err != nil {
		b.Fatal(err)
	}

	var logsRead int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "copy")
		if err := copyDir(seedDir, dir); err != nil {
			b.Fatal(err)
		}
		st, err := store.OpenSharded(dir, 4)
		if err != nil {
			b.Fatal(err)
		}
		if res, err := st.Ingest(bytes.NewReader(fifth), 2); err != nil || !res.Clean() {
			b.Fatalf("ingest: %+v, %v", res, err)
		}
		before := st.CompactionLogsRead()
		b.StartTimer()
		sums, err := st.SiteSummaries(2)
		b.StopTimer()
		if err != nil || len(sums) == 0 || sums[0].Runs != 5 {
			b.Fatalf("sites: %d rows, %v", len(sums), err)
		}
		logsRead += st.CompactionLogsRead() - before
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(logsRead)/float64(b.N), "logs-read/op")
}
