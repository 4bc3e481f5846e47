package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// harness is the state of one invocation: its configuration, the operation
// tally and the metrics it will print.
type harness struct {
	seed    uint64
	seconds int
	work    string // scratch directory, removed at exit
	log     io.Writer
	tr      *tracer // nil: untraced run
	// readRepeats and diffRepeats are how many times each log is read
	// back and analyzed, and each /diff asked; the median time counts.
	readRepeats, diffRepeats int

	attempted     int
	failed        int
	checkFailures []string
	metrics       map[string]metric
}

// checkError is an output that disagrees with what the benchmark computed
// on its own, or with a property the method must have.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// op records one attempted operation and its outcome. A failed check
// fails the operation and marks the run incorrect; any other error fails
// the operation only.
func (b *harness) op(what string, err error) {
	b.attempted++
	if err == nil {
		return
	}
	b.failed++
	var ce *checkError
	if errors.As(err, &ce) {
		b.checkFailures = append(b.checkFailures, what+": "+ce.msg)
		return
	}
	fmt.Fprintf(b.log, "dragbench: %s: %v\n", what, err)
}

func (b *harness) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// rounds is the fixed number of rounds a run of the given nominal round
// length performs: it depends on --seconds alone, so a faster program does
// the same work in less time.
func (b *harness) rounds(nominal float64) int {
	n := int(float64(b.seconds)/nominal + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// settle forces a Go collection so garbage left by the previous operation
// is not collected inside the next timed one.
func settle() { runtime.GC() }

// usage is the process's CPU time and peak resident set.
type usage struct {
	cpu    time.Duration
	peakMB float64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	// Linux reports ru_maxrss in KiB.
	return usage{cpu: cpu, peakMB: float64(ru.Maxrss) / 1024}
}

// median of a non-empty sample (mean of the middle two for even sizes).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// splitmix64 derives independent values from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive returns the i-th value of the stream the workload seed selects
// for purpose p.
func derive(seed uint64, p string, i int) uint64 {
	h := seed
	for _, c := range p {
		h = splitmix64(h ^ uint64(c))
	}
	return splitmix64(h ^ uint64(i)*0x2545f4914f6cdd1d)
}
