package bench

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"dragprof/internal/drag"
	"dragprof/internal/profile"
)

// Log-format and aggregation benchmarks over a real workload. CI's
// bench-smoke job runs each once (-benchtime=1x) and archives the
// size/speed comparison; locally run with -bench for real numbers.

func benchProfile(b *testing.B) *profile.Profile {
	b.Helper()
	return diffResult(b, "jack").Profile
}

// logBenchProfile is one profile the log benchmarks encode; prefix starts
// its sub-benchmark names.
type logBenchProfile struct {
	prefix string
	p      *profile.Profile
}

// logBenchProfiles are exact jack, under the sub-benchmark names the log
// benchmarks have always had, and jack sampled at 1e-3, whose sparse
// records are where a log layout can lose bytes.
func logBenchProfiles(b *testing.B) []logBenchProfile {
	b.Helper()
	jack, err := ByName("jack")
	if err != nil {
		b.Fatal(err)
	}
	sampled, err := Run(jack, Original, OriginalInput, RunConfig{SampleRate: goldenSampleRate, SampleSeed: goldenSampleSeed})
	if err != nil {
		b.Fatal(err)
	}
	return []logBenchProfile{{"", benchProfile(b)}, {"sampled-", sampled.Profile}}
}

// logEncodings are the two ways a log is written.
var logEncodings = []struct {
	name  string
	write func(w io.Writer, p *profile.Profile) error
}{
	{"binary", func(w io.Writer, p *profile.Profile) error {
		return profile.WriteBinaryLog(w, p, profile.BinaryOptions{})
	}},
	{"binary-gzip", func(w io.Writer, p *profile.Profile) error {
		return profile.WriteBinaryLog(w, p, profile.BinaryOptions{Compress: true})
	}},
}

func BenchmarkLogWrite(b *testing.B) {
	for _, lp := range logBenchProfiles(b) {
		for _, enc := range logEncodings {
			b.Run(lp.prefix+enc.name, func(b *testing.B) {
				var buf bytes.Buffer
				for i := 0; i < b.N; i++ {
					buf.Reset()
					if err := enc.write(&buf, lp.p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(buf.Len()), "log-bytes")
				b.SetBytes(int64(buf.Len()))
			})
		}
	}
}

func BenchmarkLogRead(b *testing.B) {
	for _, lp := range logBenchProfiles(b) {
		for _, enc := range logEncodings {
			b.Run(lp.prefix+enc.name, func(b *testing.B) {
				var buf bytes.Buffer
				if err := enc.write(&buf, lp.p); err != nil {
					b.Fatal(err)
				}
				data := buf.Bytes()
				b.SetBytes(int64(len(data)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := profile.ReadLog(bytes.NewReader(data)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(data)), "log-bytes")
			})
		}
	}
}

func BenchmarkParallelAggregate(b *testing.B) {
	p := benchProfile(b)
	var bin bytes.Buffer
	if err := profile.WriteBinaryLog(&bin, p, profile.BinaryOptions{}); err != nil {
		b.Fatal(err)
	}
	data := bin.Bytes()

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drag.Analyze(p, drag.Options{})
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drag.AnalyzeParallel(p, drag.Options{}, workers)
			}
		})
	}
	b.Run("streamed-parallel-8", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := drag.AnalyzeLog(bytes.NewReader(data), drag.Options{}, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}
