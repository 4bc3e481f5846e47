package bench

import (
	"bytes"
	"fmt"
	"sync"

	"dragprof/internal/profile"
)

// WorkloadLog is one benchmark's profiled run serialized as an
// uncompressed binary v4 drag log — the shared corpus for the dragserved
// ingest, fuzz and concurrency tests and the ingest benchmark.
type WorkloadLog struct {
	// Name is the benchmark name (registry key).
	Name string
	// Bin is the binary log (uncompressed, so profile.BlockOffsets can
	// enumerate its block boundaries for fault-injection matrices).
	Bin []byte
	// Profile is the in-memory profile the log serializes.
	Profile *profile.Profile
}

var (
	logsOnce sync.Once
	logs     []WorkloadLog
	logsErr  error
)

// WorkloadLogs profiles every registered benchmark (original version,
// original input, default GC interval) and returns the binary drag logs.
// The profiling runs once per process and is cached; callers must not
// mutate the returned slices.
func WorkloadLogs() ([]WorkloadLog, error) {
	logsOnce.Do(func() {
		for _, b := range All() {
			r, err := Run(b, Original, OriginalInput, RunConfig{})
			if err != nil {
				logsErr = fmt.Errorf("profiling %s: %w", b.Name, err)
				return
			}
			var bin bytes.Buffer
			if err := profile.WriteBinaryLog(&bin, r.Profile, profile.BinaryOptions{}); err != nil {
				logsErr = fmt.Errorf("encoding %s: %w", b.Name, err)
				return
			}
			logs = append(logs, WorkloadLog{Name: b.Name, Bin: bin.Bytes(), Profile: r.Profile})
		}
	})
	return logs, logsErr
}
