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
	throwSrc = `
class Main {
    static void main() {
        println("before");
        throw new RuntimeException("boom");
    }
}`
	brokenSrc = "class Main { static void main() { int x = ; } }"
)

// TestRunExitCodes pins dragopt's documented exit codes, one case each.
// The output-mismatch, non-idempotence and drag-regression causes of exit
// 8 need a faulty optimizer; -require-reduction on a program with no drag
// to remove reaches the same exit.
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
	clean, throws, broken := write("clean.mj", cleanSrc), write("throw.mj", throwSrc), write("broken.mj", brokenSrc)

	cases := []struct {
		name    string
		args    []string
		code    int
		wantOut string
		wantErr string
	}{
		{"verified", []string{clean}, cli.ExitOK, "verify: output identical; idempotent yes", ""},
		{"unverified", []string{"-verify=false", "-format", "json", clean}, cli.ExitOK, `"targets"`, ""},
		{"no reduction", []string{"-require-reduction", clean}, cli.ExitFindings, "", "no target showed a drag reduction"},
		{"no targets", nil, cli.ExitUsage, "", "usage: dragopt"},
		{"unknown flag", []string{"-nope", clean}, cli.ExitUsage, "", "flag provided but not defined"},
		{"unknown format", []string{"-format", "xml", clean}, cli.ExitUsage, "", `unknown format "xml"`},
		{"unknown benchmark", []string{"-bench", "nope"}, cli.ExitUsage, "", "dragopt:"},
		{"bench with sources", []string{"-bench", "jack", clean}, cli.ExitUsage, "", "mutually exclusive"},
		{"source fails to compile", []string{broken}, cli.ExitCompile, "", "dragopt:"},
		{"missing file", []string{filepath.Join(dir, "absent.mj")}, cli.ExitFailure, "", "no such file"},
		{"program throws", []string{throws}, cli.ExitFailure, "", "baseline run"},
		{"unwritable evidence", []string{"-out", filepath.Join(dir, "absent", "e.txt"), clean}, cli.ExitFailure, "", "no such file"},
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
