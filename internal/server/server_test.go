package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dragprof/internal/bytecode"
	"dragprof/internal/drag"
	"dragprof/internal/profile"
	"dragprof/internal/store"
	"dragprof/internal/vm"
)

// syntheticProfile mirrors the analyzer's deterministic fixture: enough
// records for several binary blocks, varied lifetimes, distinct sites.
func syntheticProfile(name string, n int, seed uint64) *profile.Profile {
	p := &profile.Profile{
		Name:        name,
		FinalClock:  int64(n) * 96,
		GCInterval:  8 << 10,
		ClassNames:  []string{"A", "B", "C"},
		MethodNames: []string{"Main.main", "A.build", "B.use", "C.leak"},
		MethodFiles: []string{"main.mj", "a.mj", "b.mj", "c.mj"},
	}
	for i := 0; i < 6; i++ {
		p.Sites = append(p.Sites, bytecode.Site{
			ID: int32(i), Method: int32(i % 4), Line: int32(10 + i),
			What: "T" + string(rune('0'+i)), Desc: "site-" + string(rune('0'+i)),
		})
	}
	p.ChainNodes = []vm.ChainNode{
		{Parent: -1, Method: 0, Line: 11},
		{Parent: 0, Method: 1, Line: 12},
		{Parent: 1, Method: 2, Line: 13},
		{Parent: 0, Method: 3, Line: 14},
		{Parent: 3, Method: 2, Line: 15},
	}
	next := func(mod int64) int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int64(seed>>33) % mod
	}
	for i := 0; i < n; i++ {
		create := int64(i) * 96
		r := &profile.Record{
			AllocID: uint64(i + 1),
			Class:   int32(i % 3),
			Size:    16 + next(200)*8,
			Site:    int32(i % 6),
			Chain:   int32(next(5)),
			Create:  create,
			Collect: create + 512 + next(1<<16),
		}
		if i%4 == 0 {
			r.LastUseChain = -1
		} else {
			r.LastUse = create + 256 + next(1<<15)
			if r.LastUse > r.Collect {
				r.LastUse = r.Collect
			}
			r.LastUseChain = int32(next(5))
			r.Uses = 1 + next(40)
		}
		p.Records = append(p.Records, r)
	}
	return p
}

func encodeLog(t testing.TB, p *profile.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profile.WriteBinaryLog(&buf, p, profile.BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer spins up a dragserved instance over a temp store.
func newTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Store: st, Workers: 4, CompactDebounce: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postLog(t testing.TB, ts *httptest.Server, log []byte) (int, *IngestResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/octet-stream", bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatalf("reply (HTTP %d) is not IngestResponse JSON: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, &ir
}

func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestIngestAndCanonicalReport: the service's default report is
// byte-identical to a local analysis of the same log — the cross-network
// determinism contract.
func TestIngestAndCanonicalReport(t *testing.T) {
	_, ts := newTestServer(t)
	p := syntheticProfile("w", 12000, 1)
	log := encodeLog(t, p)

	status, ir := postLog(t, ts, log)
	if status != http.StatusCreated {
		t.Fatalf("POST = %d, want 201", status)
	}
	if ir.Run == nil || ir.Run.ID == "" {
		t.Fatal("201 reply carries no run")
	}

	local, err := drag.AnalyzeLog(bytes.NewReader(log), drag.Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	status, body := get(t, ts.URL+"/api/v1/runs/"+ir.Run.ID+"/report")
	if status != http.StatusOK {
		t.Fatalf("GET report = %d, want 200", status)
	}
	if !bytes.Equal(body, local.CanonicalDump()) {
		t.Error("served canonical report differs from local draganalyze dump")
	}

	// Duplicate upload: 200, same id.
	status, ir2 := postLog(t, ts, log)
	if status != http.StatusOK || !ir2.Duplicate || ir2.Run.ID != ir.Run.ID {
		t.Errorf("re-POST = %d %+v, want 200 duplicate of %s", status, ir2, ir.Run.ID)
	}

	// The other formats render (content checked by their own packages).
	for _, format := range []string{"text", "json", "sarif"} {
		status, body := get(t, ts.URL+"/api/v1/runs/"+ir.Run.ID+"/report?format="+format)
		if status != http.StatusOK || len(body) == 0 {
			t.Errorf("format=%s: HTTP %d, %d bytes", format, status, len(body))
		}
	}
	if status, _ := get(t, ts.URL+"/api/v1/runs/"+ir.Run.ID+"/report?format=bogus"); status != http.StatusBadRequest {
		t.Errorf("bogus format = %d, want 400", status)
	}

	// Run listing and single-run metadata.
	status, body = get(t, ts.URL+"/api/v1/runs")
	if status != http.StatusOK {
		t.Fatalf("GET runs = %d", status)
	}
	var runs []*store.RunMeta
	if err := json.Unmarshal(body, &runs); err != nil || len(runs) != 1 {
		t.Fatalf("runs list = %s (err %v), want 1 run", body, err)
	}
	if status, _ := get(t, ts.URL+"/api/v1/runs/"+ir.Run.ID); status != http.StatusOK {
		t.Errorf("GET run meta = %d", status)
	}
	if status, _ := get(t, ts.URL+"/api/v1/runs/ffffffffffff"); status != http.StatusNotFound {
		t.Errorf("unknown run = %d, want 404", status)
	}
}

// TestIngestDamagedUpload: damage lands on 422 with a parseable salvage
// report and the salvaged prefix stored; pure garbage and a text log (the
// v2 format of earlier builds) store nothing.
func TestIngestDamagedUpload(t *testing.T) {
	srv, ts := newTestServer(t)
	log := encodeLog(t, syntheticProfile("w", 12000, 2))
	ends, err := profile.BlockOffsets(log)
	if err != nil {
		t.Fatal(err)
	}
	damaged := log[:ends[1]+9]

	status, ir := postLog(t, ts, damaged)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("damaged POST = %d, want 422", status)
	}
	if ir.Salvage == nil {
		t.Fatal("422 reply carries no salvage report")
	}
	if ir.Run == nil {
		t.Fatal("salvageable prefix not stored")
	}
	if !ir.Run.Salvaged {
		t.Error("stored run not flagged salvaged")
	}

	runs := srv.Store().NumRuns()
	for _, body := range []string{
		"garbage",
		"dragprof-log 2\nname \"t\"\nfinalclock 100\ngcinterval 102400\n" +
			"classes 0\nmethods 0\nfiles 0\nsites 0\nchains 0\nrecords 0\n",
	} {
		status, ir = postLog(t, ts, []byte(body))
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("POST %.12q = %d, want 422", body, status)
		}
		if ir.Salvage == nil || !strings.Contains(ir.Salvage.Reason, "not a dragprof binary log") {
			t.Errorf("POST %.12q: 422 salvage report %+v does not name the missing magic", body, ir.Salvage)
		}
		if ir.Run != nil {
			t.Errorf("POST %.12q stored a run", body)
		}
		if n := srv.Store().NumRuns(); n != runs {
			t.Errorf("POST %.12q: %d runs stored, want %d", body, n, runs)
		}
	}
}

// TestIngestTooLargeUpload: the size limit answers 413.
func TestIngestTooLargeUpload(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Store: st, MaxUploadBytes: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, _ := postLog(t, ts, encodeLog(t, syntheticProfile("w", 5000, 3)))
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST = %d, want 413", status)
	}
}

// TestDiffEndpoint: the regression query reports savings and per-site
// deltas between two stored runs, including disjoint sites.
func TestDiffEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	base := encodeLog(t, syntheticProfile("w", 12000, 4))
	head := encodeLog(t, syntheticProfile("w", 9000, 5))
	_, irBase := postLog(t, ts, base)
	_, irHead := postLog(t, ts, head)

	status, body := get(t, fmt.Sprintf("%s/api/v1/diff?base=%s&head=%s", ts.URL, irBase.Run.ID, irHead.Run.ID))
	if status != http.StatusOK {
		t.Fatalf("GET diff = %d: %s", status, body)
	}
	var diff DiffResponse
	if err := json.Unmarshal(body, &diff); err != nil {
		t.Fatal(err)
	}
	if diff.Base != irBase.Run.ID || diff.Head != irHead.Run.ID {
		t.Errorf("diff ids = %s..%s", diff.Base, diff.Head)
	}
	if len(diff.Sites) == 0 {
		t.Error("diff carries no site deltas")
	}
	for _, d := range diff.Sites {
		if d.DragDelta != d.HeadDrag-d.BaseDrag {
			t.Errorf("site %s: delta %d != head-base %d", d.Site, d.DragDelta, d.HeadDrag-d.BaseDrag)
		}
	}

	// Text rendering and error paths.
	if status, _ := get(t, fmt.Sprintf("%s/api/v1/diff?base=%s&head=%s&format=text", ts.URL, irBase.Run.ID, irHead.Run.ID)); status != http.StatusOK {
		t.Errorf("text diff = %d", status)
	}
	if status, _ := get(t, ts.URL+"/api/v1/diff?base="+irBase.Run.ID); status != http.StatusBadRequest {
		t.Errorf("missing head = %d, want 400", status)
	}
	if status, _ := get(t, ts.URL+"/api/v1/diff?base="+irBase.Run.ID+"&head=ffffffffffff"); status != http.StatusNotFound {
		t.Errorf("unknown head = %d, want 404", status)
	}
}

// TestSitesEndpoint: cross-run summaries merge runs of a workload and
// honor every sort key deterministically.
func TestSitesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	postLog(t, ts, encodeLog(t, syntheticProfile("w", 8000, 6)))
	postLog(t, ts, encodeLog(t, syntheticProfile("w", 7000, 7)))

	status, body := get(t, ts.URL+"/api/v1/sites")
	if status != http.StatusOK {
		t.Fatalf("GET sites = %d: %s", status, body)
	}
	var sums []*store.SiteSummary
	if err := json.Unmarshal(body, &sums); err != nil {
		t.Fatal(err)
	}
	if len(sums) == 0 {
		t.Fatal("no site summaries")
	}
	for _, s := range sums {
		if s.Runs != 2 {
			t.Errorf("site %s merged %d runs, want 2", s.Desc, s.Runs)
		}
	}
	for i := 1; i < len(sums); i++ {
		if sums[i].Drag > sums[i-1].Drag {
			t.Fatal("default sort is not drag-descending")
		}
	}

	for _, key := range []string{"bytes", "objects", "neverused"} {
		if status, _ := get(t, ts.URL+"/api/v1/sites?sort="+key); status != http.StatusOK {
			t.Errorf("sort=%s: HTTP %d", key, status)
		}
	}
	if status, _ := get(t, ts.URL+"/api/v1/sites?sort=bogus"); status != http.StatusBadRequest {
		t.Error("bogus sort accepted")
	}
	status, body = get(t, ts.URL+"/api/v1/sites?format=text")
	if status != http.StatusOK || !strings.Contains(string(body), "cross-run drag sites") {
		t.Errorf("text sites = %d: %.80s", status, body)
	}
}

// TestMetricsAndHealth: operational endpoints answer and count ingests.
func TestMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t)
	postLog(t, ts, encodeLog(t, syntheticProfile("w", 6000, 8)))

	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET metrics = %d", status)
	}
	for _, want := range []string{
		"dragserved_ingest_requests_total 1",
		"dragserved_ingest_stored_total 1",
		"dragserved_store_runs 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Error("healthz not ok")
	}
	if status, _ := get(t, ts.URL+"/debug/pprof/cmdline"); status != http.StatusOK {
		t.Error("pprof not wired")
	}
}
