package bench

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"dragprof/internal/profile"
	"dragprof/internal/store"
)

func profileWriteBinary(w io.Writer, p *profile.Profile) error {
	return profile.WriteBinaryLog(w, p, profile.BinaryOptions{})
}

// BenchmarkIngest measures the dragserved ingest path — spool + hash +
// block-sharded aggregation + content-addressed commit — over a real
// workload log, at several worker counts. Each iteration ingests into a
// fresh store so commit costs (log rename, durable metadata write, directory
// fsyncs) are measured, not amortized away by deduplication.
func BenchmarkIngest(b *testing.B) {
	p := benchProfile(b)
	var bin bytes.Buffer
	if err := profileWriteBinary(&bin, p); err != nil {
		b.Fatal(err)
	}
	data := bin.Bytes()

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := store.Open(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := st.Ingest(bytes.NewReader(data), workers)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Clean() || res.Duplicate {
					b.Fatalf("ingest result %+v", res)
				}
			}
		})
	}
}
