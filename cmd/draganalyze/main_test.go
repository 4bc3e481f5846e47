package main

import (
	"strings"
	"testing"

	"dragprof/internal/bench"
	"dragprof/internal/cli"
	"dragprof/internal/profile"
)

// TestCheckAggregateExitCodes pins draganalyze's multi-log contract on
// real runs of one build: two jack runs sampled with different seeds
// intern different chain tables and still aggregate; a sampled log with
// an exact one is a usage error (exit 2); logs whose site tables differ
// fail (exit 1).
func TestCheckAggregateExitCodes(t *testing.T) {
	jack, err := bench.ByName("jack")
	if err != nil {
		t.Fatal(err)
	}
	runJack := func(rate float64, seed uint64) *profile.Profile {
		r, err := bench.Run(jack, bench.Original, bench.OriginalInput, bench.RunConfig{SampleRate: rate, SampleSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return r.Profile
	}
	s1, s2, exact := runJack(0.01, 1), runJack(0.01, 2), runJack(0, 0)
	if len(s1.ChainNodes) == len(s2.ChainNodes) {
		t.Fatalf("sampled runs intern %d chain nodes each; the case needs different chain tables", len(s1.ChainNodes))
	}
	otherBuild := *s2
	otherBuild.Sites = s2.Sites[:len(s2.Sites)-1]

	cases := []struct {
		name     string
		next     *profile.Profile
		wantCode int
		wantMsg  string
	}{
		{"sampled runs of one build", s2, cli.ExitOK, ""},
		{"sampled with exact", exact, cli.ExitUsage, "mixing sampled and exact"},
		{"different site tables", &otherBuild, cli.ExitFailure, "site tables differ"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, msg := checkAggregate("jack-1.dplg", s1, "jack-2.dplg", c.next)
			if code != c.wantCode || !strings.Contains(msg, c.wantMsg) {
				t.Fatalf("checkAggregate = (%d, %q), want (%d, containing %q)", code, msg, c.wantCode, c.wantMsg)
			}
		})
	}
}
