package faultinject_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dragprof/internal/bench"
	"dragprof/internal/drag"
	"dragprof/internal/faultinject"
	"dragprof/internal/profile"
	"dragprof/internal/vm"
	"dragprof/internal/xrand"
)

// TestFaultMatrix drives every benchmark workload through the injected
// fault set the issue prescribes: truncation at every block boundary,
// seeded bit flips, write-error and short-write injection, and mid-run
// budget aborts. At every fault point salvage must recover exactly the
// intact prefix blocks and the analyzer must neither panic nor diverge
// from a serial analysis of the same prefix. When DRAGPROF_SALVAGE_DIR is
// set, each workload's salvage reports are archived there as JSON (the CI
// fault-injection job collects them).
func TestFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("fault matrix profiles all workloads; skipped in -short")
	}
	artifactDir := os.Getenv("DRAGPROF_SALVAGE_DIR")
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			res, err := bench.Run(b, bench.Original, bench.OriginalInput, bench.RunConfig{})
			if err != nil {
				t.Fatalf("profile run: %v", err)
			}
			p := res.Profile
			var buf bytes.Buffer
			if err := profile.WriteBinaryLog(&buf, p, profile.BinaryOptions{}); err != nil {
				t.Fatalf("write log: %v", err)
			}
			data := buf.Bytes()
			ends, err := profile.BlockOffsets(data)
			if err != nil {
				t.Fatalf("block offsets: %v", err)
			}

			var archived []archivedReport
			t.Run("truncation", func(t *testing.T) {
				archived = append(archived, testTruncationMatrix(t, b.Name, p, data, ends)...)
			})
			t.Run("bitflips", func(t *testing.T) {
				archived = append(archived, testBitFlips(t, b.Name, p, data, ends)...)
			})
			t.Run("write-errors", func(t *testing.T) {
				testWriteErrors(t, p, data, ends)
			})
			t.Run("abort", func(t *testing.T) {
				archived = append(archived, testBudgetAbort(t, b)...)
			})
			if artifactDir != "" && len(archived) > 0 {
				writeArtifacts(t, artifactDir, b.Name, archived)
			}
		})
	}
}

type archivedReport struct {
	Workload string                 `json:"workload"`
	Fault    string                 `json:"fault"`
	Report   *profile.SalvageReport `json:"report"`
}

// testTruncationMatrix cuts the log at every block boundary and checks the
// acceptance criterion: exactly the preceding blocks come back, and the
// salvage analyzer is byte-identical to a serial analysis of that prefix.
func testTruncationMatrix(t *testing.T, name string, p *profile.Profile, data []byte, ends []int64) []archivedReport {
	var out []archivedReport
	for k, end := range ends {
		q, sr, err := profile.SalvageLog(bytes.NewReader(data[:end]))
		if err != nil {
			t.Fatalf("cut after block %d: %v", k, err)
		}
		if sr.BlocksRecovered != k+1 {
			t.Fatalf("cut after block %d: recovered %d blocks", k, sr.BlocksRecovered)
		}
		want := (k + 1) * profile.DefaultBlockRecords
		if want > len(p.Records) {
			want = len(p.Records)
		}
		if len(q.Records) != want {
			t.Fatalf("cut after block %d: %d records, want %d", k, len(q.Records), want)
		}
		for i := range q.Records {
			if *q.Records[i] != *p.Records[i] {
				t.Fatalf("cut after block %d: record %d differs", k, i)
			}
		}

		rep := drag.AnalyzeParallel(q, drag.Options{}, 4)
		prefix := *p
		prefix.Records = p.Records[:want]
		serial := drag.Analyze(&prefix, drag.Options{})
		if !bytes.Equal(rep.CanonicalDump(), serial.CanonicalDump()) {
			t.Fatalf("cut after block %d: salvage analyzer diverges from serial prefix analysis", k)
		}
		if k == len(ends)/2 {
			out = append(out, archivedReport{Workload: name, Fault: fmt.Sprintf("truncate-block-%d", k), Report: sr})
		}
	}
	return out
}

// testBitFlips flips seeded bits across the log. Salvage must never panic
// and never hand back a record differing from the original prefix.
func testBitFlips(t *testing.T, name string, p *profile.Profile, data []byte, ends []int64) []archivedReport {
	var out []archivedReport
	r := xrand.NewRand(uint64(len(data)) ^ 0xfa017)
	for trial := 0; trial < 48; trial++ {
		min := 0
		if trial%2 == 0 && len(ends) > 1 {
			min = int(ends[0]) // record section beyond block 0
		}
		bad, off := faultinject.FlipBit(data, min, r)
		q, sr, err := profile.SalvageLog(bytes.NewReader(bad))
		if err != nil {
			continue // damage landed in the header or tables
		}
		if len(q.Records) > len(p.Records) {
			t.Fatalf("flip at %d: salvage invented %d records", off, len(q.Records)-len(p.Records))
		}
		for i := range q.Records {
			if *q.Records[i] != *p.Records[i] {
				t.Fatalf("flip at %d: salvaged record %d differs from original", off, i)
			}
		}
		if min > 0 && sr.RecordsRecovered < profile.DefaultBlockRecords && len(p.Records) >= profile.DefaultBlockRecords {
			t.Fatalf("flip at %d (past block 0) lost block 0: recovered %d records", off, sr.RecordsRecovered)
		}
		if trial == 0 {
			out = append(out, archivedReport{Workload: name, Fault: fmt.Sprintf("bitflip-%d", off), Report: sr})
		}
	}
	return out
}

// testWriteErrors pushes the log writer through failing, truncating and
// chunking writers.
func testWriteErrors(t *testing.T, p *profile.Profile, data []byte, ends []int64) {
	for _, compress := range []bool{false, true} {
		size := int64(len(data))
		if compress {
			var gz bytes.Buffer
			if err := profile.WriteBinaryLog(&gz, p, profile.BinaryOptions{Compress: true}); err != nil {
				t.Fatalf("gzip write: %v", err)
			}
			size = int64(gz.Len())
		}
		for _, n := range []int64{0, 1, 64, size / 2, size - 1} {
			err := profile.WriteBinaryLog(faultinject.FailAfter(io.Discard, n), p,
				profile.BinaryOptions{Compress: compress})
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("FailAfter(%d, compress=%v): err = %v, want injected", n, compress, err)
			}
		}
	}
	// A silent truncation at a block boundary (crash image) salvages the
	// preceding blocks.
	cut := ends[len(ends)/2]
	var torn bytes.Buffer
	if err := profile.WriteBinaryLog(faultinject.TruncateAfter(&torn, cut), p, profile.BinaryOptions{}); err != nil {
		t.Fatalf("TruncateAfter write: %v", err)
	}
	_, sr, err := profile.SalvageLog(bytes.NewReader(torn.Bytes()))
	if err != nil {
		t.Fatalf("salvage of torn log: %v", err)
	}
	if sr.BlocksRecovered != len(ends)/2+1 {
		t.Fatalf("torn log recovered %d blocks, want %d", sr.BlocksRecovered, len(ends)/2+1)
	}
	// Chunked short writes must not change a single byte.
	var chunked bytes.Buffer
	if err := profile.WriteBinaryLog(faultinject.Chunked(&chunked, 7), p, profile.BinaryOptions{}); err != nil {
		t.Fatalf("chunked write: %v", err)
	}
	if !bytes.Equal(chunked.Bytes(), data) {
		t.Fatal("chunked writer produced different bytes")
	}
}

// testBudgetAbort aborts the workload mid-run on an allocation budget and
// checks the crashed run still yields a salvageable, analyzable log with
// trailers for the objects live at abort.
func testBudgetAbort(t *testing.T, b *bench.Benchmark) []archivedReport {
	cp, err := b.Compile(bench.Original, bench.OriginalInput)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p, _, runErr := profile.Run(cp.Program, b.Name+"/aborted", vm.Config{
		GCInterval: bench.DefaultGCInterval,
		Budgets:    faultinject.AbortAfterAlloc(1 << 20),
	})
	var be *vm.BudgetError
	if !errors.As(runErr, &be) || be.Kind != vm.BudgetAllocBytes {
		t.Fatalf("run err = %v, want alloc BudgetError", runErr)
	}
	if p == nil || len(p.Records) == 0 {
		t.Fatal("aborted run yielded no profile records")
	}
	atExit := 0
	for _, r := range p.Records {
		if r.AtExit {
			atExit++
		}
	}
	if atExit == 0 {
		t.Fatal("aborted run flushed no live-object trailers")
	}
	var buf bytes.Buffer
	if err := profile.WriteBinaryLog(&buf, p, profile.BinaryOptions{}); err != nil {
		t.Fatalf("write log: %v", err)
	}
	q, sr, err := profile.SalvageLog(bytes.NewReader(buf.Bytes()))
	if err != nil || !sr.Clean() {
		t.Fatalf("salvage of aborted-run log: err=%v report=%+v", err, sr)
	}
	if len(q.Records) != len(p.Records) {
		t.Fatalf("salvaged %d of %d records", len(q.Records), len(p.Records))
	}
	if _, err := drag.AnalyzeLog(bytes.NewReader(buf.Bytes()), drag.Options{}, 4); err != nil {
		t.Fatalf("analyze of aborted-run log: %v", err)
	}
	return []archivedReport{{Workload: b.Name, Fault: "budget-abort-1MB", Report: sr}}
}

func writeArtifacts(t *testing.T, dir, name string, reports []archivedReport) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("artifact dir: %v", err)
	}
	blob, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		t.Fatalf("marshal artifacts: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".salvage.json"), blob, 0o644); err != nil {
		t.Fatalf("write artifacts: %v", err)
	}
}
