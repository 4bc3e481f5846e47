package drag

import (
	"errors"
	"testing"

	"dragprof/internal/bytecode"
	"dragprof/internal/profile"
	"dragprof/internal/vm"
)

// TestCheckMergeable pins the one cross-run merge rule the store's
// compactor and draganalyze share: chain tables may differ, sample rates
// and site tables may not.
func TestCheckMergeable(t *testing.T) {
	run := func() *profile.Profile {
		return &profile.Profile{
			Sites:      make([]bytecode.Site, 3),
			ChainNodes: make([]vm.ChainNode, 5),
			SampleRate: 0.01,
		}
	}
	cases := []struct {
		name string
		edit func(*profile.Profile)
		want error
	}{
		{"chain tables differ", func(p *profile.Profile) { p.ChainNodes = p.ChainNodes[:2] }, nil},
		{"sample rates differ", func(p *profile.Profile) { p.SampleRate = 0 }, ErrRateMismatch},
		{"site tables differ", func(p *profile.Profile) { p.Sites = p.Sites[:2] }, ErrSiteTables},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := run()
			c.edit(b)
			err := CheckMergeable(run(), b)
			if c.want == nil && err != nil {
				t.Fatalf("CheckMergeable = %v, want nil", err)
			}
			if c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("CheckMergeable = %v, want an error wrapping %v", err, c.want)
			}
		})
	}
}
