package server

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dragprof/internal/bench"
	"dragprof/internal/store"
)

// servedStore is a dragserved over a store directory with background
// compaction held off, so every merge is the one a /sites poll runs.
type servedStore struct {
	srv *Server
	ts  *httptest.Server
}

func serveDir(t *testing.T, dir string) *servedStore {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Store: st, Workers: 2, CompactDebounce: time.Hour})
	s := &servedStore{srv: srv, ts: httptest.NewServer(srv.Handler())}
	t.Cleanup(s.close)
	return s
}

func (s *servedStore) close() {
	s.ts.Close()
	s.srv.Close()
}

// metric reads one unlabeled counter from /metrics.
func (s *servedStore) metric(t *testing.T, name string) int64 {
	t.Helper()
	status, body := get(t, s.ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d", status)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s:\n%s", name, body)
	return 0
}

// sites polls /api/v1/sites, which must answer 200.
func (s *servedStore) sites(t *testing.T) []*store.SiteSummary {
	t.Helper()
	status, body := get(t, s.ts.URL+"/api/v1/sites")
	if status != http.StatusOK {
		t.Fatalf("/api/v1/sites = %d: %s", status, body)
	}
	var out []*store.SiteSummary
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func (s *servedStore) push(t *testing.T, log []byte, want int) *IngestResponse {
	t.Helper()
	status, ir := postLog(t, s.ts, log)
	if status != want {
		t.Fatalf("push = %d (%s), want %d", status, ir.Error, want)
	}
	return ir
}

const logsReadMetric = "dragserved_compaction_logs_read_total"

// TestCompactionLogsRead: a run this process ingested is added to its
// workload's summary without reading a log; a run committed by a process
// that stopped before compacting costs one log read after the restart; a
// summary without moments, as written before summaries were additive, is
// rebuilt from every log of its workload once.
func TestCompactionLogsRead(t *testing.T) {
	dir := t.TempDir()
	s := serveDir(t, dir)
	s.push(t, encodeLog(t, syntheticProfile("w", 4000, 1)), http.StatusCreated)
	s.sites(t)
	s.push(t, encodeLog(t, syntheticProfile("w", 4000, 2)), http.StatusCreated)
	if sums := s.sites(t); len(sums) == 0 || sums[0].Runs != 2 {
		t.Fatalf("sites after two pushes: %+v", sums)
	}
	if n := s.metric(t, logsReadMetric); n != 0 {
		t.Fatalf("push + /sites read %d logs, want 0", n)
	}
	s.close()
	// A process that stops before it compacts (dragserved compacts on a
	// clean shutdown) leaves a run its summary lacks.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := st.Ingest(bytes.NewReader(encodeLog(t, syntheticProfile("w", 4000, 3))), 2); err != nil || !res.Clean() {
		t.Fatalf("ingest: %+v, %v", res, err)
	}

	s = serveDir(t, dir)
	if sums := s.sites(t); len(sums) == 0 || sums[0].Runs != 3 {
		t.Fatalf("sites after a reopen: %+v", sums)
	}
	if n := s.metric(t, logsReadMetric); n != 1 {
		t.Fatalf("push, reopen, /sites read %d logs, want 1", n)
	}
	want := s.sites(t)
	s.close()

	// Rewrite the summary as it was before it carried moments.
	path := filepath.Join(dir, "compact", hex.EncodeToString([]byte("w"))+".json")
	var cur struct {
		Runs []string `json:"runs"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &cur); err != nil {
		t.Fatal(err)
	}
	old, err := json.MarshalIndent(map[string]any{"name": "w", "runs": cur.Runs, "totalDrag": 1, "sites": []any{}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	s = serveDir(t, dir)
	got := s.sites(t)
	if n := s.metric(t, logsReadMetric); n != 3 {
		t.Fatalf("a summary without moments read %d logs, want 3", n)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("rebuilt sites differ:\ngot  %s\nwant %s", gj, wj)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatalf("rebuilt summary differs from the appended one:\ngot  %s\nwant %s", after, data)
	}
}

// TestUnmergeableUploadRefused: exact javac, then javac sampled at 1e-3,
// then exact jack. The sampled push cannot merge with the stored javac
// run, so it gets 409 and is not stored; /sites keeps answering, and
// serves jack's sites.
func TestUnmergeableUploadRefused(t *testing.T) {
	logs, err := bench.WorkloadLogs()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]byte{}
	for _, l := range logs {
		byName[l.Name] = l.Bin
	}
	javac, err := bench.ByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	r, err := bench.Run(javac, bench.Original, bench.OriginalInput, bench.RunConfig{SampleRate: 1e-3, SampleSeed: 1})
	if err != nil {
		t.Fatal(err)
	}

	s := serveDir(t, t.TempDir())
	s.push(t, byName["javac"], http.StatusCreated)
	ir := s.push(t, encodeLog(t, r.Profile), http.StatusConflict)
	if ir.Run != nil || !strings.Contains(ir.Error, "sample-rate mismatch") {
		t.Fatalf("409 reply: %+v", ir)
	}
	s.push(t, byName["jack"], http.StatusCreated)
	if n := s.metric(t, "dragserved_ingest_unmergeable_total"); n != 1 {
		t.Fatalf("dragserved_ingest_unmergeable_total = %d, want 1", n)
	}
	if n := s.metric(t, "dragserved_store_runs"); n != 2 {
		t.Fatalf("%d runs stored, want 2", n)
	}
	workloads := map[string]bool{}
	for _, site := range s.sites(t) {
		workloads[strings.SplitN(site.Name, "/", 2)[0]] = true
		if site.Runs != 1 {
			t.Fatalf("site %s/%s merged %d runs, want 1", site.Name, site.Desc, site.Runs)
		}
	}
	if !workloads["jack"] || !workloads["javac"] {
		t.Fatalf("sites serve workloads %v, want javac and jack", workloads)
	}
}

// TestConcurrentUnmergeableFirstUploads races an exact and a sampled
// first upload of one workload into a fresh store, many times: exactly
// one lands, the other gets 409, and /sites answers over the one.
func TestConcurrentUnmergeableFirstUploads(t *testing.T) {
	exact := encodeLog(t, syntheticProfile("w", 2000, 1))
	sp := syntheticProfile("w", 2000, 2)
	sp.SampleRate = 0.5
	sampled := encodeLog(t, sp)
	for i := 0; i < 8; i++ {
		s := serveDir(t, t.TempDir())
		var wg sync.WaitGroup
		codes := make([]int, 2)
		for j, log := range [][]byte{exact, sampled} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(s.ts.URL+"/api/v1/runs", "application/octet-stream", bytes.NewReader(log))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				codes[j] = resp.StatusCode
			}()
		}
		wg.Wait()
		created, conflict := 0, 0
		for _, c := range codes {
			switch c {
			case http.StatusCreated:
				created++
			case http.StatusConflict:
				conflict++
			}
		}
		if created != 1 || conflict != 1 {
			t.Fatalf("round %d: statuses %v, want one 201 and one 409", i, codes)
		}
		if n := s.metric(t, "dragserved_store_runs"); n != 1 {
			t.Fatalf("round %d: %d runs stored, want 1", i, n)
		}
		if sums := s.sites(t); len(sums) == 0 || sums[0].Runs != 1 {
			t.Fatalf("round %d: sites %+v", i, sums)
		}
		s.close()
	}
}

// TestSortSitesTotalOrder: under every sort key, rows that tie on the
// metric, the workload and the description come out in chain-key order.
func TestSortSitesTotalOrder(t *testing.T) {
	a := &store.SiteSummary{Name: "w", Desc: "Main.main:3", Key: "0:3;", Drag: 10, Bytes: 5, Count: 2, NeverUsed: 1}
	b := &store.SiteSummary{Name: "w", Desc: "Main.main:3", Key: "4:3;", Drag: 10, Bytes: 5, Count: 2, NeverUsed: 1}
	for _, key := range []string{"drag", "bytes", "objects", "neverused"} {
		for _, rows := range [][]*store.SiteSummary{{a, b}, {b, a}} {
			if !sortSites(rows, key) {
				t.Fatalf("sort %s refused", key)
			}
			if rows[0] != a {
				t.Fatalf("sort %s: %s before %s", key, rows[0].Key, rows[1].Key)
			}
		}
	}
}
