package store

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dragprof/internal/drag"
	"dragprof/internal/profile"
)

// countingFS counts the bytes written and the temp files created through
// the seam, by directory. gate, when set, holds the first CreateTemp in
// gateDir until it is closed, after signalling entered.
type countingFS struct {
	OSFS
	mu      sync.Mutex
	written int64
	creates map[string]int

	gateDir string
	entered chan struct{}
	gate    chan struct{}
	gated   bool
}

func newCountingFS() *countingFS { return &countingFS{creates: map[string]int{}} }

func (c *countingFS) CreateTemp(dir, pattern string) (File, error) {
	c.mu.Lock()
	c.creates[dir]++
	wait := c.gate != nil && dir == c.gateDir && !c.gated
	if wait {
		c.gated = true
	}
	c.mu.Unlock()
	if wait {
		close(c.entered)
		<-c.gate
	}
	f, err := c.OSFS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.written = 0
	c.creates = map[string]int{}
}

type countingFile struct {
	File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

// TestIngestSpoolsOnce: a clean upload into a 4-shard store is written
// once — the spool that becomes the stored log — plus its metadata
// record, and it lands on its home shard. A damaged
// upload's salvaged run lands on the home shard of its stored id.
func TestIngestSpoolsOnce(t *testing.T) {
	fsys := newCountingFS()
	dir := t.TempDir()
	st, err := OpenShardedFS(dir, 4, fsys)
	if err != nil {
		t.Fatal(err)
	}
	log := encodeLog(t, syntheticProfile("w", 10000, 5))
	fsys.reset()
	res, err := st.Ingest(bytes.NewReader(log), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || res.Duplicate {
		t.Fatalf("clean upload: got %+v", res)
	}
	id := res.Meta.ID
	home := shardOf(id, 4)
	meta, err := os.ReadFile(filepath.Join(dir, "shards", shardName(home), "runs", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(log) + len(meta)); fsys.written != want {
		t.Fatalf("ingest wrote %d bytes, want %d (upload %d + metadata %d)",
			fsys.written, want, len(log), len(meta))
	}
	if n := fsys.creates[filepath.Join(dir, "tmp")]; n != 1 {
		t.Fatalf("ingest created %d spool files in tmp/, want 1", n)
	}

	ends, err := profile.BlockOffsets(log)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := st.Ingest(bytes.NewReader(log[:ends[1]+7]), 2)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Meta == nil || !sres.Meta.Salvaged {
		t.Fatalf("damaged upload not stored as salvaged: %+v", sres)
	}
	for i := 0; i < st.NumShards(); i++ {
		for _, rid := range []string{id, sres.Meta.ID} {
			_, ok := st.Shard(i).Get(rid)
			if want := i == shardOf(rid, 4); ok != want {
				t.Fatalf("run %s on shard %d: %v, want %v", rid[:12], i, ok, want)
			}
		}
	}
	// Each committed run is its log and its metadata record, nothing else.
	var stored []string
	for i := 0; i < st.NumShards(); i++ {
		ents, err := os.ReadDir(st.Shard(i).runsDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			stored = append(stored, e.Name())
		}
	}
	sort.Strings(stored)
	want := []string{id + ".json", id + ".log", sres.Meta.ID + ".json", sres.Meta.ID + ".log"}
	sort.Strings(want)
	if strings.Join(stored, " ") != strings.Join(want, " ") {
		t.Fatalf("shards hold %v, want %v", stored, want)
	}
}

// TestCompactionSingleFlight: a SiteSummaries that starts while a Compact
// is merging waits for it instead of merging the same workload again, so
// one ingest costs exactly one summary write, at the root.
func TestCompactionSingleFlight(t *testing.T) {
	fsys := newCountingFS()
	dir := t.TempDir()
	st, err := OpenShardedFS(dir, 4, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ingest(bytes.NewReader(encodeLog(t, syntheticProfile("w", 6000, 6))), 2); err != nil {
		t.Fatal(err)
	}
	fsys.reset()
	fsys.mu.Lock()
	fsys.gateDir = filepath.Join(dir, "compact")
	fsys.entered = make(chan struct{})
	fsys.gate = make(chan struct{})
	fsys.mu.Unlock()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- st.Compact(2)
	}()
	<-fsys.entered // the first merge is about to write its summary
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := st.SiteSummaries(2)
		errs <- err
	}()
	// Give SiteSummaries time to reach the compactor. Correct code passes
	// however long this is; it only gives a second merge time to show.
	time.Sleep(20 * time.Millisecond)
	close(fsys.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for d, n := range fsys.creates {
		switch {
		case d == filepath.Join(dir, "compact"):
			if n != 1 {
				t.Errorf("%d temp files in compact/, want 1", n)
			}
		case strings.HasPrefix(d, filepath.Join(dir, "shards")):
			t.Errorf("compaction wrote %d temp files under %s", n, d)
		}
	}
	if fsys.creates[filepath.Join(dir, "compact")] == 0 {
		t.Error("no summary written")
	}
}

// TestCompactionMergesAcrossChainTables: runs of one build whose chain
// tables differ (as sampled runs' do) merge; runs whose site tables
// differ are rejected.
func TestCompactionMergesAcrossChainTables(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := syntheticProfile("w", 3000, 7)
	b := syntheticProfile("w", 3000, 8)
	for _, p := range []*profile.Profile{a, b} {
		p.SampleRate = 0.01
	}
	b.ChainNodes = b.ChainNodes[:4]
	for _, r := range b.Records {
		r.Chain %= 4
		if r.LastUseChain >= 0 {
			r.LastUseChain %= 4
		}
	}
	for _, p := range []*profile.Profile{a, b} {
		if _, err := st.Ingest(bytes.NewReader(encodeLog(t, p)), 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.SiteSummaries(2); err != nil {
		t.Fatalf("runs of one build with different chain tables: %v", err)
	}

	c := syntheticProfile("w", 3000, 9)
	c.SampleRate = 0.01
	c.Sites = c.Sites[:5]
	for _, r := range c.Records {
		r.Site %= 5
	}
	if _, err := st.Ingest(bytes.NewReader(encodeLog(t, c)), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SiteSummaries(2); err == nil || !strings.Contains(err.Error(), "incompatible site tables") {
		t.Fatalf("mismatched site tables: got %v, want an incompatible-site-tables error", err)
	}
}

// syncHookFS runs hook once, on the first SyncDir of dir.
type syncHookFS struct {
	OSFS
	dir  string
	once sync.Once
	hook func()
}

func (h *syncHookFS) SyncDir(dir string) error {
	if dir == h.dir && h.hook != nil {
		h.once.Do(h.hook)
	}
	return h.OSFS.SyncDir(dir)
}

// TestCompactKeepsRunCommittedDuringMerge: a run of a workload committed
// after the compactor wrote that workload's summary, but before it clears
// the workload's dirty mark, keeps the mark set, so the next query merges
// the run. The hook commits the second run the way Store.commit does
// (publish on the shard, then count it and mark the workload dirty under
// s.mu) while the compactor waits for s.mu.
func TestCompactKeepsRunCommittedDuringMerge(t *testing.T) {
	dir := t.TempDir()
	fsys := &syncHookFS{dir: filepath.Join(dir, "compact")}
	st, err := OpenShardedFS(dir, 4, fsys)
	if err != nil {
		t.Fatal(err)
	}
	ingestOne(t, st, "w", 3000, 1)

	// Stage the second run's committed files with a store of its own.
	other, err := OpenSharded(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := other.Ingest(bytes.NewReader(encodeLog(t, syntheticProfile("w", 3000, 2))), 2)
	if err != nil {
		t.Fatal(err)
	}
	second := res.Meta
	for _, ext := range []string{".log", ".json"} {
		data, err := os.ReadFile(other.home(second.ID).path(second.ID, ext))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.home(second.ID).path(second.ID, ext), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	committed := make(chan struct{})
	fsys.hook = func() {
		// The compactor has merged the first run and written its summary.
		st.mu.Lock()
		go func() {
			defer close(committed)
			// Give the compactor time to reach s.mu. Correct code passes
			// however long this is; it only gives a stale run set time to
			// be read.
			time.Sleep(20 * time.Millisecond)
			sh := st.home(second.ID)
			sh.mu.Lock()
			sh.runs[second.ID] = second
			sh.mu.Unlock()
			st.addLocked(second)
			st.dirty[second.Name] = true
			st.mu.Unlock()
		}()
	}
	if err := st.Compact(2); err != nil {
		t.Fatal(err)
	}
	<-committed
	if !st.Dirty() {
		t.Fatal("a run committed during compaction lost its workload's dirty mark")
	}
	sums, err := st.SiteSummaries(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) == 0 || sums[0].Runs != 2 {
		t.Fatalf("summary after the next query: %+v, want 2 runs merged", sums)
	}
}

// TestOpenRefusesUnshardedLayout: a store whose runs sit in a root runs/
// directory is refused, because Open reads runs only under shards/.
func TestOpenRefusesUnshardedLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "runs", "x.json"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "unsharded layout") {
		t.Fatalf("Open over a root runs/: got %v, want an unsharded-layout error", err)
	}
}

// moveRun moves (or, with keep, copies) the named artifacts of run id
// from one shard's runs/ to another's.
func moveRun(t *testing.T, dir, id string, from, to int, keep bool, exts ...string) {
	t.Helper()
	for _, ext := range exts {
		src := filepath.Join(dir, "shards", shardName(from), "runs", id+ext)
		dst := filepath.Join(dir, "shards", shardName(to), "runs", id+ext)
		if !keep {
			if err := os.Rename(src, dst); err != nil {
				t.Fatal(err)
			}
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryQuarantinesOffHomeRun: queries look for a run only on its
// home shard, so recovery quarantines a run filed on another shard, with
// its reason, rather than keep a run Get can never find. That holds for a
// whole run moved away, for a run split across two shards (its log at
// home is then an orphan) and for a second copy of a run committed at
// home, which goes on being served from home.
func TestRecoveryQuarantinesOffHomeRun(t *testing.T) {
	all := []string{".log", ".json"}
	for _, tc := range []struct {
		name  string
		stage func(t *testing.T, dir, id string, home, away int)
		kept  bool
	}{
		{"whole-run", func(t *testing.T, dir, id string, home, away int) {
			moveRun(t, dir, id, home, away, false, all...)
		}, false},
		{"interrupted-move", func(t *testing.T, dir, id string, home, away int) {
			moveRun(t, dir, id, home, away, false, ".json")
		}, false},
		{"duplicate", func(t *testing.T, dir, id string, home, away int) {
			moveRun(t, dir, id, home, away, true, all...)
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenSharded(dir, 4)
			if err != nil {
				t.Fatal(err)
			}
			id := ingestOne(t, st, "alpha", 600, 1)
			wantRep, err := st.Report(id, drag.Options{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := wantRep.CanonicalDump()
			home := shardOf(id, 4)
			away := (home + 1) % 4
			tc.stage(t, dir, id, home, away)

			re, err := OpenSharded(dir, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, ext := range all {
				if _, err := os.Stat(filepath.Join(dir, "shards", shardName(away), "runs", id+ext)); err == nil {
					t.Errorf("%s left on shard %d", id[:12]+ext, away)
				}
			}
			if r := quarantineReasons(t, re)[id+".json"]; !strings.Contains(r, "off its home shard") {
				t.Fatalf("off-home metadata: reason %q, want one naming the home shard", r)
			}
			if !tc.kept {
				if re.NumRuns() != 0 || len(re.Runs()) != 0 {
					t.Fatalf("after reopen: %d runs, want 0", re.NumRuns())
				}
				return
			}
			if re.NumRuns() != 1 || len(re.Runs()) != 1 {
				t.Fatalf("after reopen: %d runs, want 1", re.NumRuns())
			}
			if _, ok := re.Shard(home).Get(id); !ok {
				t.Fatalf("run not on its home shard %d", home)
			}
			gotRep, err := re.Report(id, drag.Options{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := gotRep.CanonicalDump(); !bytes.Equal(got, want) {
				t.Fatal("canonical report changed across reopen")
			}
		})
	}
}
