package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dragprof/internal/cli"
	"dragprof/internal/profile"
)

// closedURL returns the URL of a loopback port nothing listens on.
func closedURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

const (
	brokenSrc = "class Main { static void main() { int x = ; } }"
	throwSrc  = `
class Main {
    static void main() {
        int[] a = new int[64];
        a[0] = 1;
        println("before");
        throw new RuntimeException("boom");
    }
}`
	allocSrc = `
class Main {
    static void main() {
        int i = 0;
        while (i < 100000000) {
            int[] a = new int[1024];
            a[0] = i;
            i = i + 1;
        }
    }
}`
)

// TestRunExitCodes pins dragprof's documented exit codes, one case each.
// Every case that gets as far as running the program must leave a log
// that profile.ReadLog accepts, halted runs included.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	broken, throws, allocs := write("broken.mj", brokenSrc), write("throw.mj", throwSrc), write("alloc.mj", allocSrc)
	cases := []struct {
		name    string
		args    []string
		code    int
		wantOut string
		wantErr string
		log     bool // the run writes a log
	}{
		{"bench run", []string{"-bench", "jess"}, cli.ExitOK, "", "log written to", true},
		{"unknown format", []string{"-format", "xml", "-bench", "jess"}, cli.ExitUsage, "", "flag provided but not defined: -format", false},
		{"source fails to compile", []string{broken}, cli.ExitCompile, "", "dragprof:", false},
		{"uncaught exception", []string{throws}, cli.ExitRuntime, "before\n", "RuntimeException: boom", true},
		{"allocation budget", []string{"-max-alloc", "100000", allocs}, cli.ExitBudget, "", "alloc-bytes budget exhausted", true},
		{"server unreachable", []string{"-bench", "jess", "-push", closedURL(t), "-push-retries", "0"},
			cli.ExitNetwork, "", "after 1 attempts", true},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			logPath := filepath.Join(dir, fmt.Sprintf("run%d.log", i))
			var stdout, stderr bytes.Buffer
			code := run(append([]string{"-o", logPath}, c.args...), &stdout, &stderr)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), c.wantOut) {
				t.Errorf("stdout lacks %q:\n%s", c.wantOut, stdout.String())
			}
			if !strings.Contains(stderr.String(), c.wantErr) {
				t.Errorf("stderr lacks %q:\n%s", c.wantErr, stderr.String())
			}
			f, err := os.Open(logPath)
			if !c.log {
				if err == nil {
					f.Close()
					t.Errorf("exit %d wrote a log", code)
				}
				return
			}
			if err != nil {
				t.Fatalf("no log written: %v", err)
			}
			defer f.Close()
			p, err := profile.ReadLog(f)
			if err != nil {
				t.Fatalf("ReadLog rejects the written log: %v", err)
			}
			if len(p.Records) == 0 {
				t.Error("the written log has no records")
			}
		})
	}
}
