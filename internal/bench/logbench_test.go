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

func BenchmarkLogWrite(b *testing.B) {
	p := benchProfile(b)
	variants := []struct {
		name  string
		write func(w io.Writer) error
	}{
		{"text", func(w io.Writer) error { return profile.WriteLog(w, p) }},
		{"binary", func(w io.Writer) error {
			return profile.WriteBinaryLog(w, p, profile.BinaryOptions{})
		}},
		{"binary-gzip", func(w io.Writer) error {
			return profile.WriteBinaryLog(w, p, profile.BinaryOptions{Compress: true})
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := v.write(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "log-bytes")
			b.SetBytes(int64(buf.Len()))
		})
	}
}

func BenchmarkLogRead(b *testing.B) {
	p := benchProfile(b)
	encode := map[string]func(w io.Writer) error{
		"text": func(w io.Writer) error { return profile.WriteLog(w, p) },
		"binary": func(w io.Writer) error {
			return profile.WriteBinaryLog(w, p, profile.BinaryOptions{})
		},
		"binary-gzip": func(w io.Writer) error {
			return profile.WriteBinaryLog(w, p, profile.BinaryOptions{Compress: true})
		},
	}
	for _, name := range []string{"text", "binary", "binary-gzip"} {
		b.Run(name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := encode[name](&buf); err != nil {
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
		})
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
