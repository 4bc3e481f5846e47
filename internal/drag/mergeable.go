package drag

import (
	"errors"
	"fmt"

	"dragprof/internal/profile"
)

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
	return CheckShapes(ShapeOf(a), ShapeOf(b))
}

// ShapeOf returns the shape CheckMergeable compares for a run.
func ShapeOf(p *profile.Profile) Shape {
	return Shape{SampleRate: p.EffectiveSampleRate(), Sites: len(p.Sites)}
}

// Shape is what CheckMergeable compares between two runs: the effective
// sample rate and the size of the site table.
type Shape struct {
	SampleRate float64 `json:"rate"`
	Sites      int     `json:"siteTable"`
}

// CheckShapes is CheckMergeable over two runs' shapes.
func CheckShapes(a, b Shape) error {
	if a.SampleRate != b.SampleRate {
		return fmt.Errorf("%w (%g vs %g): sampled and exact runs cannot be merged", ErrRateMismatch, a.SampleRate, b.SampleRate)
	}
	if a.Sites != b.Sites {
		return fmt.Errorf("%w (%d/%d sites): runs come from different builds", ErrSiteTables, a.Sites, b.Sites)
	}
	return nil
}
