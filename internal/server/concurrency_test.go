package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"dragprof/internal/bench"
	"dragprof/internal/drag"
	"dragprof/internal/store"
)

// serverFingerprint captures everything a client can observe: the run-id
// set, every run's canonical report, and the cross-run site summaries.
type serverFingerprint struct {
	runIDs     []string
	canonicals map[string]string
	sites      string
}

// pushAllConcurrently stands up a fresh server, pushes every workload log
// from its own goroutine (start order permuted by rotation), and returns
// the observable state once everything is stored and compacted.
func pushAllConcurrently(t *testing.T, logs []bench.WorkloadLog, rotate int) serverFingerprint {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Store: st, Workers: 2, CompactDebounce: time.Millisecond})
	defer srv.Close()

	// In-process round-trips through the real handler keep the -race run
	// focused on server/store state rather than socket throughput.
	ts, url := newLocalServer(t, srv)
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, len(logs))
	for i := range logs {
		wl := logs[(i+rotate)%len(logs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			open := func() (io.ReadCloser, error) {
				return io.NopCloser(bytes.NewReader(wl.Bin)), nil
			}
			if _, err := Push(context.Background(), url, open, fastPush(3)); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	fp := serverFingerprint{canonicals: make(map[string]string)}
	for _, m := range st.Runs() {
		fp.runIDs = append(fp.runIDs, m.ID)
		rep, err := st.Report(m.ID, drag.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		fp.canonicals[m.ID] = string(rep.CanonicalDump())
	}
	sort.Strings(fp.runIDs)
	sums, err := st.SiteSummaries(2)
	if err != nil {
		t.Fatal(err)
	}
	sitesJSON, err := json.Marshal(sums)
	if err != nil {
		t.Fatal(err)
	}
	fp.sites = string(sitesJSON)
	return fp
}

// TestConcurrentIngestDeterministic pushes all workload logs from parallel
// clients twice, with different arrival orders, and demands the two
// servers end in byte-identical observable states: same run-id set, same
// canonical reports, same compacted site summaries. Run under -race in CI,
// this doubles as the ingest path's data-race check.
func TestConcurrentIngestDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles all workloads")
	}
	logs, err := bench.WorkloadLogs()
	if err != nil {
		t.Fatal(err)
	}

	a := pushAllConcurrently(t, logs, 0)
	b := pushAllConcurrently(t, logs, 5)

	if len(a.runIDs) != len(logs) {
		t.Fatalf("stored %d runs, want %d", len(a.runIDs), len(logs))
	}
	if !equalStrings(a.runIDs, b.runIDs) {
		t.Fatalf("run-id sets differ across ingest orders:\n  a: %v\n  b: %v", a.runIDs, b.runIDs)
	}
	for id, canon := range a.canonicals {
		if b.canonicals[id] != canon {
			t.Errorf("canonical report for %s differs across ingest orders", id)
		}
	}
	if a.sites != b.sites {
		t.Error("compacted site summaries differ across ingest orders")
	}
}

// TestConcurrentDuplicateUploads hammers one log from many goroutines at
// once: exactly one run may be stored, every reply must reference it.
func TestConcurrentDuplicateUploads(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Store: st, Workers: 2, CompactDebounce: time.Millisecond})
	defer srv.Close()
	ts, url := newLocalServer(t, srv)
	defer ts.Close()

	log := encodeLog(t, syntheticProfile("w", 8000, 42))
	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			open := func() (io.ReadCloser, error) {
				return io.NopCloser(bytes.NewReader(log)), nil
			}
			resp, err := Push(context.Background(), url, open, fastPush(3))
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = resp.Run.ID
		}()
	}
	wg.Wait()
	if st.NumRuns() != 1 {
		t.Fatalf("%d runs stored for one log pushed %d times", st.NumRuns(), clients)
	}
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("client %d saw run %s, client 0 saw %s", i, ids[i], ids[0])
		}
	}
}

func newLocalServer(t *testing.T, srv *Server) (*httptest.Server, string) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	return ts, ts.URL
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
