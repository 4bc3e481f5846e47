package drag

import (
	"io"
	"runtime"
	"sync"

	"dragprof/internal/profile"
)

// The one worker pool: every analysis of a drag log runs through fold.
// Records arrive as contiguous parts (chunks of an in-memory profile, or
// blocks of a streamed log); each part is decoded and aggregated on its
// own goroutine, and the per-part accumulators merge in the order the
// parts were produced. Integer reductions commute; the only ordered
// reductions (each group's drag-time and sample sequences feeding the
// floating-point statistics) are kept in record order by the ordered
// merge, so the result is byte-identical to Analyze's serial pass — the
// differential golden tests in internal/bench hold every entry point to
// that.

// parallelThreshold is the record count below which chunking overhead
// outweighs the fan-out and Fold runs on one worker instead.
const parallelThreshold = 2048

// part yields one contiguous run of records.
type part func() ([]*profile.Record, error)

// fold aggregates the parts next yields (io.EOF after the last one) on
// workers goroutines. At one worker it adds every record to a single
// accumulator on the calling goroutine and starts no goroutine.
func fold(p *profile.Profile, opts Options, workers int, next func() (part, error)) (*Accumulator, error) {
	acc := NewAccumulator(p, opts)
	if workers == 1 {
		for {
			pt, err := next()
			if err == io.EOF {
				return acc, nil
			}
			if err != nil {
				return nil, err
			}
			recs, err := pt()
			if err != nil {
				return nil, err
			}
			for _, r := range recs {
				acc.Add(r)
			}
		}
	}

	type job struct {
		index int
		pt    part
	}
	var (
		mu       sync.Mutex
		parts    []*Accumulator
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// One queued part per worker lets the producer read ahead while every
	// worker is busy, without buffering more than the pool can start.
	jobs := make(chan job, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				recs, err := j.pt()
				if err != nil {
					setErr(err)
					continue
				}
				a := NewAccumulator(p, opts)
				for _, r := range recs {
					a.Add(r)
				}
				mu.Lock()
				parts[j.index] = a
				mu.Unlock()
			}
		}()
	}
	for n := 0; ; n++ {
		pt, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			setErr(err)
			break
		}
		mu.Lock()
		parts = append(parts, nil)
		mu.Unlock()
		jobs <- job{n, pt}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for _, a := range parts {
		acc.Merge(a)
	}
	return acc, nil
}

// poolSize resolves a workers argument: workers <= 0 means GOMAXPROCS.
func poolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Fold aggregates an in-memory profile on workers goroutines (workers <= 0:
// GOMAXPROCS). Profiles under parallelThreshold records fold on one worker.
func Fold(p *profile.Profile, opts Options, workers int) *Accumulator {
	workers = poolSize(workers)
	recs := p.Records
	if len(recs) < parallelThreshold {
		workers = 1
	}
	// Oversplit by 4x so a chunk of slow records does not stall the tail.
	chunk := max((len(recs)+workers*4-1)/(workers*4), parallelThreshold/2)
	acc, _ := fold(p, opts, workers, func() (part, error) {
		if len(recs) == 0 {
			return nil, io.EOF
		}
		c := recs[:min(chunk, len(recs))]
		recs = recs[len(c):]
		return func() ([]*profile.Record, error) { return c, nil }, nil
	})
	return acc // in-memory parts cannot fail
}

// FoldLog aggregates a drag log stream block by block on workers goroutines
// (workers <= 0: GOMAXPROCS), never materializing the full record slice.
// The accumulator is over s.Profile()'s tables. A damaged block or a
// stream fault is returned as the error.
func FoldLog(s *profile.LogStream, opts Options, workers int) (*Accumulator, error) {
	return fold(s.Profile(), opts, poolSize(workers), func() (part, error) {
		blk, err := s.Next()
		if err != nil {
			return nil, err
		}
		return blk.Decode, nil
	})
}

// AnalyzeParallel runs the phase-2 analysis over an in-memory profile
// through Fold. The report is byte-identical to Analyze's.
func AnalyzeParallel(p *profile.Profile, opts Options, workers int) *Report {
	return Fold(p, opts, workers).Report()
}

// AnalyzeLog streams a drag log (raw or gzipped) through
// FoldLog and returns its report, byte-identical to Analyze's over the
// same records.
func AnalyzeLog(r io.Reader, opts Options, workers int) (*Report, error) {
	s, err := profile.OpenLogStream(r)
	if err != nil {
		return nil, err
	}
	acc, err := FoldLog(s, opts, workers)
	if err != nil {
		return nil, err
	}
	return acc.Report(), nil
}
