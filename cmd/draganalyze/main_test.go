package main

import (
	"bytes"
	"os"
	"path/filepath"
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

// TestRunExitCodes pins draganalyze's documented exit codes, one case
// each, on logs of real runs written to disk.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	writeLog := func(name string, p *profile.Profile) string {
		t.Helper()
		var buf bytes.Buffer
		if err := profile.WriteBinaryLog(&buf, p, profile.BinaryOptions{}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	exact := writeLog("jack.dplg", benchProfile(t, "jack", 0, 0))
	s1 := writeLog("jack-s1.dplg", benchProfile(t, "jack", 0.01, 1))
	s2 := writeLog("jack-s2.dplg", benchProfile(t, "jack", 0.01, 2))
	jess := writeLog("jess.dplg", benchProfile(t, "jess", 0, 0))
	data, err := os.ReadFile(exact)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "jack-truncated.dplg")
	if err := os.WriteFile(truncated, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	// A complete log in the text format (v2) that earlier builds wrote.
	textLog := filepath.Join(dir, "text.log")
	if err := os.WriteFile(textLog, []byte("dragprof-log 2\nname \"t\"\nfinalclock 100\ngcinterval 102400\n"+
		"classes 0\nmethods 0\nfiles 0\nsites 0\nchains 0\nrecords 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		args    []string
		code    int
		wantOut string
		wantErr string
	}{
		{"one log", []string{"-top", "3", exact}, cli.ExitOK, "#3  ", ""},
		{"two logs", []string{"-format", "canonical", s1, s2}, cli.ExitOK, "samplerate ", ""},
		{"unknown format", []string{"-format", "xml", exact}, cli.ExitUsage, "", `unknown -format "xml"`},
		{"no log", nil, cli.ExitUsage, "", "usage: draganalyze"},
		{"salvage with two logs", []string{"-salvage", exact, exact}, cli.ExitUsage, "", "need a single log"},
		{"anchors with two logs", []string{"-anchors", exact, exact}, cli.ExitUsage, "", "need a single log"},
		{"curve with two logs", []string{"-curve", exact, exact}, cli.ExitUsage, "", "need a single log"},
		{"sampled with exact", []string{s1, exact}, cli.ExitUsage, "", "mixing sampled and exact"},
		{"missing file", []string{filepath.Join(dir, "absent.dplg")}, cli.ExitFailure, "", "no such file"},
		{"damaged log", []string{truncated}, cli.ExitFailure, "", "-salvage recovers"},
		{"text log", []string{textLog}, cli.ExitFailure, "", "not a dragprof binary log"},
		{"different site tables", []string{exact, jess}, cli.ExitFailure, "", "site tables differ"},
		{"salvaged log", []string{"-salvage", truncated}, cli.ExitSalvaged, "WARNING: partial data", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), c.wantOut) {
				t.Errorf("stdout lacks %q:\n%s", c.wantOut, stdout.String())
			}
			if !strings.Contains(stderr.String(), c.wantErr) {
				t.Errorf("stderr lacks %q:\n%s", c.wantErr, stderr.String())
			}
		})
	}

	// The fold is byte-identical at every worker count, merged logs
	// included.
	for _, logs := range [][]string{{exact, exact}, {s1, s2}} {
		var dumps [2]bytes.Buffer
		for i, workers := range []string{"1", "4"} {
			var stderr bytes.Buffer
			args := append([]string{"-format", "canonical", "-workers", workers}, logs...)
			if code := run(args, &dumps[i], &stderr); code != cli.ExitOK {
				t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
			}
		}
		if dumps[0].Len() == 0 || !bytes.Equal(dumps[0].Bytes(), dumps[1].Bytes()) {
			t.Errorf("merged canonical dump of %v differs between -workers 1 and -workers 4", logs)
		}
	}
}

// benchProfile profiles a benchmark, sampled at rate with seed when rate
// is non-zero.
func benchProfile(t *testing.T, name string, rate float64, seed uint64) *profile.Profile {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := bench.Run(b, bench.Original, bench.OriginalInput, bench.RunConfig{SampleRate: rate, SampleSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return r.Profile
}
