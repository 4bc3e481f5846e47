package drag

import (
	"errors"
	"fmt"

	"dragprof/internal/profile"
)

// Accumulator exposes the phase-2 aggregation/merge machinery to other
// packages. It is the unit of mergeable drag state: the run store's ingest
// path builds one per record block (sharded over a goroutine pool, exactly
// like AnalyzeLog's workers) and merges them in block order, and its
// compactor merges whole runs of the same workload into cross-run per-site
// summaries. Merging is the same aggregator.merge path the parallel
// analyzer uses, so a merged report is byte-identical to a serial pass over
// the concatenated record sequence. Groups are keyed by integer within one
// accumulator and matched by canonical key across a merge, so runs with
// different chain tables merge; CheckMergeable states which runs may.
type Accumulator struct {
	a *aggregator
}

// NewAccumulator returns an empty accumulator over p's tables. opts are
// resolved against p's defaults immediately, so accumulators that will be
// merged must be built with the same effective options.
func NewAccumulator(p *profile.Profile, opts Options) *Accumulator {
	return &Accumulator{a: newAggregator(p, opts.withDefaults(p))}
}

// Add accumulates one trailer record.
func (c *Accumulator) Add(r *profile.Record) { c.a.add(r) }

// Merge folds later into c. later must cover records that follow c's in
// record order (later blocks of the same run, or later runs in the
// compactor's deterministic run order); the ordered append keeps every
// per-group floating-point reduction byte-identical to a serial pass.
// later must not be used afterwards.
func (c *Accumulator) Merge(later *Accumulator) { c.a.merge(later.a) }

// Report finalizes the accumulated state. The receiver must not be used
// afterwards.
func (c *Accumulator) Report() *Report { return c.a.report() }

// ErrSiteTables is the error CheckMergeable wraps when two profiles' site
// tables differ: the runs come from different builds.
var ErrSiteTables = errors.New("drag: incompatible site tables")

// CheckMergeable is the rule for folding two runs into one accumulator,
// shared by the run store's compactor and draganalyze's multi-log mode.
// Coarse groups key on the site id, so the site tables must agree, as they
// do for repeated runs of one build. Nested-site groups and last-use
// partitions merge by chain content (method, line), not chain id, so the
// chain tables may differ: a sampled run interns only the chains of the
// objects it sampled. The sample rates must match, because sampled and
// exact runs (or two rates) scale their estimates differently; that error
// wraps ErrRateMismatch, and mismatched site tables wrap ErrSiteTables.
func CheckMergeable(a, b *profile.Profile) error {
	if ra, rb := a.EffectiveSampleRate(), b.EffectiveSampleRate(); ra != rb {
		return fmt.Errorf("%w (%g vs %g): sampled and exact runs cannot be merged", ErrRateMismatch, ra, rb)
	}
	if len(a.Sites) != len(b.Sites) {
		return fmt.Errorf("%w (%d/%d sites): runs come from different builds", ErrSiteTables, len(a.Sites), len(b.Sites))
	}
	return nil
}
