package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dragprof/internal/cli"
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

// TestRunExitCodes pins dragpilot's documented exit codes, one case each.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	broken := filepath.Join(dir, "broken.mj")
	if err := os.WriteFile(broken, []byte("class Main { static void main() { int x = ; } }"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		code    int
		wantOut string
		wantErr string
	}{
		{"local sweep of euler", []string{"-workloads", "euler", "-out", filepath.Join(dir, "euler")},
			cli.ExitOK, "  local\n", "artifacts written"},
		{"no server and no programs", nil, cli.ExitUsage, "", "give -server, -workloads or .mj files"},
		{"files with a server", []string{"-server", "http://127.0.0.1:1", broken},
			cli.ExitUsage, "", "cannot be combined with -server"},
		{"source fails to compile", []string{broken}, cli.ExitCompile, "", "dragpilot:"},
		{"server unreachable", []string{"-server", closedURL(t), "-workloads", "euler"},
			cli.ExitNetwork, "", "fetching served sites"},
		{"drag-saving floor not met", []string{"-workloads", "db", "-min-drag-saving", "1"},
			cli.ExitFindings, "", "below the 1.0% floor"},
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
	sarif, err := os.ReadFile(filepath.Join(dir, "euler", "findings.sarif"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(sarif, []byte("phase-guarded")) {
		t.Error("euler's local sweep SARIF does not record the phase-guarded kill")
	}
}
