package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dragprof/internal/cli"
)

const (
	cleanSrc = `
class Main {
    static void main() {
        int acc = 0;
        for (int r = 0; r < 10; r = r + 1) {
            acc = acc + r;
        }
        printInt(acc);
    }
}`
	// findingsSrc holds a never-used allocation (confidence 0.95) and
	// write-only ones (0.75).
	findingsSrc = `
class Cache {
    int[] data;
    Cache(int n) {
        data = new int[n];
        data[0] = n;
    }
}
class Holder {
    static Object[] keep;
}
class Main {
    static void main() {
        Holder.keep = new Object[4];
        Holder.keep[0] = new Cache(20000);
        printInt(1);
    }
}`
	brokenSrc = "class Main { static void main() { int x = ; } }"
)

// TestRunExitCodes pins dragvet's documented exit codes, one case each.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	clean, findings, broken := write("clean.mj", cleanSrc), write("findings.mj", findingsSrc), write("broken.mj", brokenSrc)
	// A SARIF log of a program is a baseline holding its findings.
	sarif := func(name, src string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-format", "sarif", src}, &stdout, &stderr); code != cli.ExitOK {
			t.Fatalf("sarif of %s: exit %d\n%s", src, code, stderr.String())
		}
		return write(name, stdout.String())
	}
	cleanBase, findingsBase := sarif("clean.sarif", clean), sarif("findings.sarif", findings)

	cases := []struct {
		name    string
		args    []string
		code    int
		wantOut string
		wantErr string
	}{
		{"clean source", []string{clean}, cli.ExitOK, "no findings", ""},
		{"findings under the gate", []string{"-max-confidence-fail", "0.99", findings}, cli.ExitOK, "never-used-alloc", ""},
		{"baselined findings", []string{"-baseline", findingsBase, "-fail-on-new", findings}, cli.ExitOK, "", "fingerprints"},
		{"finding at the gate", []string{"-max-confidence-fail", "0.9", findings}, cli.ExitFindings, "", "confidence 0.95 >= fail threshold 0.90"},
		{"findings outside the baseline", []string{"-baseline", cleanBase, "-fail-on-new", findings}, cli.ExitFindings, "", "new findings not in the baseline"},
		{"no sources", nil, cli.ExitUsage, "", "usage: dragvet"},
		{"unknown flag", []string{"-nope", clean}, cli.ExitUsage, "", "flag provided but not defined"},
		{"unknown format", []string{"-format", "xml", clean}, cli.ExitUsage, "", `unknown format "xml"`},
		{"missing file", []string{filepath.Join(dir, "absent.mj")}, cli.ExitFailure, "", "no such file"},
		{"source fails to compile", []string{broken}, cli.ExitFailure, "", "dragvet:"},
		{"unknown benchmark", []string{"-bench", "nope"}, cli.ExitFailure, "", "dragvet:"},
		{"bench with sources", []string{"-bench", "jack", clean}, cli.ExitUsage, "", "mutually exclusive"},
		{"fail-on-new without baseline", []string{"-fail-on-new", findings}, cli.ExitFailure, "", "requires -baseline"},
		{"unreadable baseline", []string{"-baseline", filepath.Join(dir, "absent.sarif"), clean}, cli.ExitFailure, "", "no such file"},
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
}
