package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dragprof/internal/cli"
)

// TestRunExitCodes pins dragserved's exit codes for every outcome that
// does not need a signal: bad usage, a tenant config without tenants,
// and a store the daemon can never open, which must end the process
// rather than leave it serving 503.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	noTenants := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(noTenants, []byte("[]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	unsharded := filepath.Join(dir, "unsharded")
	if err := os.MkdirAll(filepath.Join(unsharded, "runs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(unsharded, "runs", "x.json"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		code    int
		wantErr string
	}{
		{"stray argument", []string{"extra"}, cli.ExitUsage, "usage: dragserved"},
		{"zero shards", []string{"-shards", "0"}, cli.ExitUsage, "-shards 0: want at least 1"},
		{"no tenants", []string{"-tenants", noTenants}, cli.ExitUsage, "no tenants defined"},
		{"unsharded store", []string{"-addr", "127.0.0.1:0", "-data", unsharded}, cli.ExitFailure, "unsharded layout"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.wantErr) {
				t.Errorf("stderr lacks %q:\n%s", c.wantErr, stderr.String())
			}
		})
	}
}
