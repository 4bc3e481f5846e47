package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"dragprof/internal/bench"
	"dragprof/internal/drag"
	"dragprof/internal/profile"
)

// benchRuns profiles every benchmark once per config, in parallel on two
// goroutines, and returns the encoded logs by benchmark name, in config
// order.
func benchRuns(t *testing.T, cfgs []bench.RunConfig) map[string][][]byte {
	t.Helper()
	type job struct {
		b *bench.Benchmark
		i int
	}
	out := map[string][][]byte{}
	var jobs []job
	for _, b := range bench.All() {
		out[b.Name] = make([][]byte, len(cfgs))
		for i := range cfgs {
			jobs = append(jobs, job{b, i})
		}
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan job)
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				r, err := bench.Run(j.b, bench.Original, bench.OriginalInput, cfgs[j.i])
				var buf bytes.Buffer
				if err == nil {
					err = profile.WriteBinaryLog(&buf, r.Profile, profile.BinaryOptions{})
				}
				if err != nil {
					t.Errorf("%s: %v", j.b.Name, err)
					continue
				}
				mu.Lock()
				out[j.b.Name][j.i] = buf.Bytes()
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return out
}

// compactFiles reads every summary under a store's compact/ directory.
func compactFiles(t *testing.T, st *Store) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(st.Root(), "compact", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

func sitesJSON(t *testing.T, st *Store) []byte {
	t.Helper()
	sums, err := st.SiteSummaries(2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(sums, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// serialFloatSites is the /sites answer a serial fold gives: every log
// of a workload read whole, folded record by record, merged in sorted-id
// order, each nested site classified by the report's float mean and
// deviation.
func serialFloatSites(t *testing.T, logs map[string][][]byte) []byte {
	t.Helper()
	var out []*SiteSummary
	for _, runs := range logs {
		byID := map[string][]byte{}
		for _, log := range runs {
			byID[runID(log)] = log
		}
		ids := make([]string, 0, len(byID))
		for id := range byID {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var acc *drag.Accumulator
		for _, id := range ids {
			p, err := profile.ReadLog(bytes.NewReader(byID[id]))
			if err != nil {
				t.Fatal(err)
			}
			next := drag.NewAccumulator(p, drag.Options{})
			for _, r := range p.Records {
				next.Add(r)
			}
			if acc == nil {
				acc = next
				continue
			}
			acc.Merge(next)
		}
		rep := acc.Report()
		for _, g := range rep.ByNestedSite {
			out = append(out, &SiteSummary{
				Name:      rep.Name,
				Desc:      g.Desc,
				Key:       strings.TrimPrefix(g.Key, "chain:"),
				Runs:      len(ids),
				Count:     g.Count,
				NeverUsed: g.NeverUsed,
				Bytes:     g.Bytes,
				Drag:      g.Drag,
				InUse:     g.InUse,
				Pattern:   g.Pattern.String(),
			})
		}
	}
	SortSites(out, func(s *SiteSummary) int64 { return s.Drag })
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runID is the id the store gives an upload.
func runID(log []byte) string {
	sum := sha256.Sum256(log)
	return hex.EncodeToString(sum[:])
}

func ingestLog(t *testing.T, st *Store, log []byte) string {
	t.Helper()
	res, err := st.Ingest(bytes.NewReader(log), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || res.Duplicate {
		t.Fatalf("ingest: %+v", res)
	}
	return res.Meta.ID
}

func reopen(t *testing.T, st *Store) *Store {
	t.Helper()
	next, err := OpenSharded(st.Root(), 4)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestAppendCompactionMatchesRebuild is the append-only compaction
// oracle, over all nine workloads, exact and sampled at 1e-3. One store
// adds each push to the stored summaries: the pushes come one run per
// workload at a time, with a reopen between a push and /sites, and the
// last run's id sorts before every stored one of its workload. Another
// store rebuilds every summary from the logs. Their /sites answers and
// compact files are byte-identical, and the /sites answer equals a serial
// float fold of the logs. Then a run stored beside them is damaged on
// disk; the reopen quarantines it and rebuilds its workload, and the
// answers match again.
func TestAppendCompactionMatchesRebuild(t *testing.T) {
	modes := []struct {
		name string
		cfgs []bench.RunConfig
	}{
		// Exact runs differ by deep-GC interval, and so by never-used
		// window: the merged patterns use the smallest id's window.
		{"exact", []bench.RunConfig{{GCInterval: 32 << 10}, {GCInterval: 64 << 10}, {GCInterval: 100 << 10}, {GCInterval: 48 << 10}}},
		// Sampled runs differ by sample seed, and so by chain table.
		{"sampled", []bench.RunConfig{
			{SampleRate: 1e-3, SampleSeed: 1}, {SampleRate: 1e-3, SampleSeed: 2},
			{SampleRate: 1e-3, SampleSeed: 3}, {SampleRate: 1e-3, SampleSeed: 4},
		}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			all := benchRuns(t, mode.cfgs)
			// The first three runs of each workload are pushed; the
			// fourth is the one damaged on disk.
			pushed := map[string][][]byte{}
			var names []string
			for name, runs := range all {
				// Push order: the middle id, the largest, then the
				// smallest, which sorts before both stored ones.
				three := append([][]byte(nil), runs[:3]...)
				sort.Slice(three, func(i, j int) bool { return runID(three[i]) < runID(three[j]) })
				pushed[name] = [][]byte{three[1], three[2], three[0]}
				names = append(names, name)
			}
			sort.Strings(names)

			app, err := OpenSharded(t.TempDir(), 4)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				for _, name := range names {
					ingestLog(t, app, pushed[name][round])
				}
				if round == 1 {
					app = reopen(t, app)
				}
				before := app.CompactionLogsRead()
				sitesJSON(t, app)
				want := int64(0)
				if round == 1 {
					want = int64(len(names)) // each workload's second run
				}
				if n := app.CompactionLogsRead() - before; n != want {
					t.Fatalf("round %d: compaction read %d logs, want %d", round, n, want)
				}
			}

			rebuild, err := OpenSharded(t.TempDir(), 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				for _, log := range pushed[name] {
					ingestLog(t, rebuild, log)
				}
			}
			rebuild = reopen(t, rebuild)
			want := sitesJSON(t, rebuild)
			if n := rebuild.CompactionLogsRead(); n != int64(3*len(names)) {
				t.Fatalf("the rebuild read %d logs, want %d", n, 3*len(names))
			}
			check := func(stage string) {
				t.Helper()
				if got := sitesJSON(t, app); !bytes.Equal(got, want) {
					t.Fatalf("%s: appended /sites differs from the rebuilt one:\ngot:\n%s\nwant:\n%s", stage, got, want)
				}
				af, rf := compactFiles(t, app), compactFiles(t, rebuild)
				if len(af) != len(names) || len(rf) != len(names) {
					t.Fatalf("%s: %d and %d compact files, want %d", stage, len(af), len(rf), len(names))
				}
				for f, data := range rf {
					if !bytes.Equal(af[f], data) {
						t.Fatalf("%s: compact/%s differs:\nappended: %s\nrebuilt:  %s", stage, f, af[f], data)
					}
				}
			}
			check("after the pushes")
			if serial := serialFloatSites(t, pushed); !bytes.Equal(want, serial) {
				t.Fatalf("/sites differs from the serial float fold:\ngot:\n%s\nwant:\n%s", want, serial)
			}

			// A fourth jack run is added, then torn on disk.
			name := "jack"
			extra := all[name][3]
			id := ingestLog(t, app, extra)
			sitesJSON(t, app)
			logPath := app.home(id).path(id, ".log")
			data, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xff
			if err := os.WriteFile(logPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			app = reopen(t, app)
			if _, ok := app.Get(id); ok {
				t.Fatalf("damaged run %s still served after the reopen: %+v", id, app.Quarantined())
			}
			check("after the quarantine")
			if n := app.CompactionLogsRead(); n != 3 {
				t.Fatalf("rebuilding %s read %d logs, want 3", name, n)
			}
		})
	}
}

// TestSortSitesBreaksTiesByChainKey: two nested sites of one workload
// with equal drag and one rendered description come out in chain-key
// order, whichever order they arrive in.
func TestSortSitesBreaksTiesByChainKey(t *testing.T) {
	a := &SiteSummary{Name: "w", Desc: "Main.main:3", Key: "0:3;", Drag: 10}
	b := &SiteSummary{Name: "w", Desc: "Main.main:3", Key: "4:3;", Drag: 10}
	for _, rows := range [][]*SiteSummary{{a, b}, {b, a}} {
		SortSites(rows, func(s *SiteSummary) int64 { return s.Drag })
		if rows[0] != a || rows[1] != b {
			t.Fatalf("order %s, %s; want %s first", rows[0].Key, rows[1].Key, a.Key)
		}
	}
	if data, _ := json.Marshal(a); strings.Contains(string(data), a.Key) {
		t.Fatalf("the chain key is served: %s", data)
	}
}
