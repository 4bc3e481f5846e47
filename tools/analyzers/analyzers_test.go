package analyzers

import (
	"os"
	"path/filepath"
	"testing"
)

// write lays out a fixture tree and returns its root.
func write(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func rules(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Rule+"@"+f.File)
	}
	return out
}

func TestExitcheck(t *testing.T) {
	root := write(t, map[string]string{
		// Sanctioned: the trampoline.
		"cmd/good/main.go": `package main
import "os"
func main() { os.Exit(run()) }
func run() int { return 0 }
`,
		// Violation: bare exit outside main, and a literal-arg exit in main.
		"cmd/bad/main.go": `package main
import "os"
func main() { os.Exit(2) }
func helper() { os.Exit(1) }
`,
		// Sanctioned: internal/cli owns the vocabulary.
		"internal/cli/exit.go": `package cli
import "os"
func Die() { os.Exit(1) }
`,
		// Test files are exempt (TestMain legitimately calls os.Exit).
		"cmd/bad/main_test.go": `package main
import ("os"; "testing")
func TestMain(m *testing.M) { os.Exit(m.Run()) }
`,
	})
	fs, err := CheckDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("want 2 exitcheck findings, got %v", rules(fs))
	}
	for _, f := range fs {
		if f.Rule != "exitcheck" || f.File != filepath.Join("cmd", "bad", "main.go") {
			t.Errorf("unexpected finding %v", f)
		}
	}
}

func TestStorelock(t *testing.T) {
	root := write(t, map[string]string{
		"internal/store/store.go": `package store
import "sync"
type RunMeta struct{ ID string; Bytes int64 }
type Store struct {
	mu      sync.Mutex
	numRuns int
	bytes   int64
	dirty   map[string]bool
}
type shard struct {
	mu   sync.Mutex
	runs map[string]*RunMeta
}
// Locked by convention: the caller holds mu (or exclusive access).
func (s *Store) addLocked(m *RunMeta) {
	s.numRuns++
	s.bytes += m.Bytes
}
// Locks: fine.
func (s *Store) Add(m *RunMeta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.numRuns++
	s.dirty[m.ID] = true
}
func (sh *shard) put(m *RunMeta) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.runs[m.ID] = m
}
// Constructors mutating their own unpublished values: fine.
func Open() *Store {
	s := &Store{dirty: map[string]bool{}}
	s.dirty["x"] = true
	sh := &shard{runs: map[string]*RunMeta{}}
	sh.runs["x"] = nil
	return s
}
// Violations: three unguarded Store writes and one unguarded shard write.
func (s *Store) Evict(id string) {
	s.numRuns--
	s.bytes = 0
	s.dirty[id] = false
}
func (sh *shard) drop(id string) {
	delete(sh.runs, id)
}
// Reads alone are not flagged (the rule targets writes).
func (sh *shard) Peek(id string) *RunMeta { return sh.runs[id] }
`,
		// Same shapes outside package store are ignored.
		"internal/other/other.go": `package other
type Store struct{ runs map[string]int }
func (s *Store) Set() { s.runs["x"] = 1 }
`,
	})
	fs, err := CheckDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 4 {
		t.Fatalf("want 4 storelock findings, got %v", rules(fs))
	}
	for _, f := range fs {
		if f.Rule != "storelock" || f.File != filepath.Join("internal", "store", "store.go") {
			t.Errorf("unexpected finding %v", f)
		}
	}
}

func TestGotrack(t *testing.T) {
	root := write(t, map[string]string{
		"internal/server/server.go": `package server
import "sync"
type Server struct{ wg sync.WaitGroup }
// Tracked: Add immediately precedes the launch.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.compactor()
}
func (s *Server) compactor() {}
// Violations: bare launch, and an Add separated from its go statement.
func (s *Server) Leak() {
	go s.compactor()
	s.wg.Add(1)
	println("gap")
	go s.compactor()
}
`,
		"internal/store/store.go": `package store
import "sync"
// Tracked: worker-pool idiom with a local group.
func fanOut(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done() }()
	}
}
`,
		// Other packages may launch goroutines freely.
		"internal/profile/run.go": `package profile
func Detach() { go func() {}() }
`,
		// Test files are exempt.
		"internal/server/server_test.go": `package server
func helper() { go func() {}() }
`,
	})
	fs, err := CheckDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("want 2 gotrack findings, got %v", rules(fs))
	}
	for _, f := range fs {
		if f.Rule != "gotrack" || f.File != filepath.Join("internal", "server", "server.go") {
			t.Errorf("unexpected finding %v", f)
		}
	}
}

func TestGotrackDaemon(t *testing.T) {
	root := write(t, map[string]string{
		// The dragserved daemon is in scope even though it is package main:
		// its listener goroutine must be waited for on shutdown.
		"cmd/dragserved/main.go": `package main
import "sync"
func run() {
	var lwg sync.WaitGroup
	// Tracked: Add immediately precedes the launch.
	lwg.Add(1)
	go func() { defer lwg.Done() }()
	// Violation: bare launch.
	go func() {}()
	lwg.Wait()
}
`,
		// Other commands may launch goroutines freely.
		"cmd/dragprof/main.go": `package main
func spin() { go func() {}() }
`,
	})
	fs, err := CheckDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("want 1 gotrack finding, got %v", rules(fs))
	}
	if fs[0].Rule != "gotrack" || fs[0].File != filepath.Join("cmd", "dragserved", "main.go") {
		t.Errorf("unexpected finding %v", fs[0])
	}
}

func TestGotrackEvents(t *testing.T) {
	root := write(t, map[string]string{
		// The SSE broadcaster package is in scope: a goroutine there that
		// outlives drain would publish into closed streams.
		"internal/server/events/events.go": `package events
import "sync"
type Broadcaster struct{ wg sync.WaitGroup }
// Tracked: Add immediately precedes the launch.
func (b *Broadcaster) Start() {
	b.wg.Add(1)
	go b.pump()
}
func (b *Broadcaster) pump() {}
// Violation: bare launch.
func (b *Broadcaster) Leak() { go b.pump() }
`,
	})
	fs, err := CheckDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("want 1 gotrack finding, got %v", rules(fs))
	}
	if fs[0].Rule != "gotrack" || fs[0].File != filepath.Join("internal", "server", "events", "events.go") {
		t.Errorf("unexpected finding %v", fs[0])
	}
}

// TestRepoIsClean turns the linter on the repository that ships it: the
// tree must self-lint clean, and stay that way.
func TestRepoIsClean(t *testing.T) {
	fs, err := CheckDir(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%v", f)
	}
}
