package bench

import (
	"bytes"
	"reflect"
	"testing"

	"dragprof/internal/drag"
	"dragprof/internal/profile"
)

// The differential battery: for every embedded workload the reference
// pipeline (serial analysis of the profile the VM produced) and the fast
// pipeline (parallel analysis streamed from the log) must agree
// byte-for-byte on site reports, curves and integrals — the classic
// correctness argument for a profiler's recording format.

// diffResults caches one profiled run per workload for the differential
// and golden tests (the runs themselves are covered elsewhere).
var diffResults = map[string]*RunResult{}

func diffResult(t testing.TB, name string) *RunResult {
	t.Helper()
	if r, ok := diffResults[name]; ok {
		return r
	}
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(b, Original, OriginalInput, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	diffResults[name] = r
	return r
}

func diffProfile(t *testing.T, name string) *profile.Profile {
	t.Helper()
	return diffResult(t, name).Profile
}

func TestDifferentialPipelines(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			p := diffProfile(t, name)

			var bin, gz bytes.Buffer
			if err := profile.WriteBinaryLog(&bin, p, profile.BinaryOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := profile.WriteBinaryLog(&gz, p, profile.BinaryOptions{Compress: true}); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: raw=%d gzip=%d (%.2fx)",
				name, bin.Len(), gz.Len(), float64(bin.Len())/float64(gz.Len()))

			// Both encodings must reconstruct the profile the VM produced.
			fromRaw, err := profile.ReadLog(bytes.NewReader(bin.Bytes()))
			if err != nil {
				t.Fatalf("raw read: %v", err)
			}
			fromBin, err := profile.ReadLog(bytes.NewReader(gz.Bytes()))
			if err != nil {
				t.Fatalf("gzip read: %v", err)
			}
			if !reflect.DeepEqual(p, fromRaw) || !reflect.DeepEqual(p, fromBin) {
				t.Fatal("log round trip differs from the profiled run at the field level")
			}

			// Reference pipeline: serial analysis of the profiled run.
			serial := drag.Analyze(p, drag.Options{})
			want := serial.CanonicalDump()

			// Fast pipeline: streamed parallel analysis of the binary log,
			// at every pool width (one worker is what compaction runs).
			var parallel *drag.Report
			for _, workers := range []int{1, 2, 8} {
				parallel, err = drag.AnalyzeLog(bytes.NewReader(gz.Bytes()), drag.Options{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got := parallel.CanonicalDump(); !bytes.Equal(want, got) {
					t.Errorf("streamed site report at %d workers differs from the serial reference", workers)
				}
				// And the in-memory parallel aggregator agrees too.
				if got := drag.AnalyzeParallel(fromBin, drag.Options{}, workers).CanonicalDump(); !bytes.Equal(want, got) {
					t.Errorf("AnalyzeParallel report at %d workers differs from serial reference", workers)
				}
			}

			// Integrals and Figure-2 curves, reconstructed from each round
			// trip, must match exactly.
			if serial.ReachableIntegral != parallel.ReachableIntegral ||
				serial.InUseIntegral != parallel.InUseIntegral ||
				serial.TotalDrag != parallel.TotalDrag {
				t.Errorf("integrals differ: serial (%d,%d,%d) parallel (%d,%d,%d)",
					serial.ReachableIntegral, serial.InUseIntegral, serial.TotalDrag,
					parallel.ReachableIntegral, parallel.InUseIntegral, parallel.TotalDrag)
			}
			cwant := drag.BuildCurve(p, 512)
			cbin := drag.BuildCurve(fromBin, 512)
			if !reflect.DeepEqual(cwant, cbin) {
				t.Error("reachable/in-use curves differ after the log round trip")
			}
		})
	}
}

// TestParallelAggregatorDeterminismOnWorkload double-runs the parallel
// aggregator on a real workload; under CI's -race job this is the
// aggregator's data-race certificate on real record streams.
func TestParallelAggregatorDeterminismOnWorkload(t *testing.T) {
	p := diffProfile(t, "jack")
	var bin bytes.Buffer
	if err := profile.WriteBinaryLog(&bin, p, profile.BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	var dumps [][]byte
	for i := 0; i < 2; i++ {
		rep, err := drag.AnalyzeLog(bytes.NewReader(bin.Bytes()), drag.Options{}, 8)
		if err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, rep.CanonicalDump())
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Error("parallel aggregation of the same log diverged between runs")
	}
}

// TestPrewarmMatchesSerialTables: the concurrently prewarmed experiment
// cache must yield byte-identical tables to a cold serial harness.
func TestPrewarmMatchesSerialTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment matrix twice")
	}
	warm := NewExperiments()
	if err := warm.Prewarm(4); err != nil {
		t.Fatal(err)
	}
	cold := NewExperiments()
	for _, pair := range []struct {
		name string
		f    func(*Experiments) (string, error)
	}{
		{"table2", func(e *Experiments) (string, error) {
			tbl, err := e.Table2()
			if err != nil {
				return "", err
			}
			return tbl.String(), nil
		}},
		{"table3", func(e *Experiments) (string, error) {
			tbl, err := e.Table3()
			if err != nil {
				return "", err
			}
			return tbl.String(), nil
		}},
	} {
		a, err := pair.f(warm)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pair.f(cold)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: prewarmed harness differs from cold serial harness", pair.name)
		}
	}
}
