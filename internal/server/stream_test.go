package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dragprof/internal/store"
)

// streamWorkloads is the nine-benchmark sweep the CI jobs use.
var streamWorkloads = []string{"javac", "db", "jack", "raytrace", "jess", "mc", "euler", "juru", "analyzer"}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    string
	event string
	data  string
}

// parseSSE splits a raw SSE stream into events, ignoring comments and
// heartbeats.
func parseSSE(t *testing.T, raw string) []sseEvent {
	t.Helper()
	var (
		out []sseEvent
		cur sseEvent
	)
	flush := func() {
		if cur.event != "" || cur.data != "" {
			out = append(out, cur)
		}
		cur = sseEvent{}
	}
	for _, line := range strings.Split(raw, "\n") {
		switch {
		case line == "":
			flush()
		case strings.HasPrefix(line, ":"):
			// comment / heartbeat
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		default:
			t.Fatalf("malformed SSE line %q", line)
		}
	}
	flush()
	return out
}

func twoTenantServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{
		Tenants: []TenantConfig{
			{Name: "alpha", Token: "tok-alpha"},
			{Name: "beta", Token: "tok-beta"},
		},
		OpenTenantStore: func(name string) (store.RunStore, error) {
			return store.OpenSharded(filepath.Join(dir, name), 3)
		},
		Workers:           2,
		CompactDebounce:   time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	<-srv.OpenDone()
	if err := srv.ReadyErr(); err != nil {
		t.Fatal(err)
	}
	return srv, ts
}

func authedReq(t *testing.T, method, url, token string, body io.Reader) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	return req
}

func pushAs(t *testing.T, ts *httptest.Server, token string, log []byte) *IngestResponse {
	t.Helper()
	req := authedReq(t, http.MethodPost, ts.URL+"/api/v1/runs", token, bytes.NewReader(log))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatalf("push reply: %v", err)
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("push = %d: %s", resp.StatusCode, ir.Error)
	}
	return &ir
}

// TestWatchStreamsConvergeToSites is the live-streaming oracle: with two
// tenants ingesting all nine workloads concurrently, each tenant's SSE
// stream must carry only its own well-formed delta events, and summing
// the streamed per-site deltas must reproduce the polled /sites totals
// exactly.
func TestWatchStreamsConvergeToSites(t *testing.T) {
	srv, ts := twoTenantServer(t, t.TempDir())

	// Open one watch per tenant before ingesting anything.
	streams := map[string]*bytes.Buffer{"tok-alpha": {}, "tok-beta": {}}
	var streamWG sync.WaitGroup
	for token, buf := range streams {
		req := authedReq(t, http.MethodGet, ts.URL+"/api/v1/watch", token, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("watch = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("watch content-type %q", ct)
		}
		streamWG.Add(1)
		go func(body io.ReadCloser, buf *bytes.Buffer) {
			defer streamWG.Done()
			defer body.Close()
			sc := bufio.NewScanner(body)
			for sc.Scan() {
				buf.WriteString(sc.Text())
				buf.WriteByte('\n')
			}
		}(resp.Body, buf)
	}

	// All nine workloads, both tenants, concurrently.
	var pushWG sync.WaitGroup
	for i, name := range streamWorkloads {
		for _, token := range []string{"tok-alpha", "tok-beta"} {
			i, name, token := i, name, token
			pushWG.Add(1)
			go func() {
				defer pushWG.Done()
				log := encodeLog(t, syntheticProfile(name, 30+i*5, uint64(i+1)))
				pushAs(t, ts, token, log)
			}()
		}
	}
	pushWG.Wait()

	// A /sites poll compacts and gives the reference totals.
	req := authedReq(t, http.MethodGet, ts.URL+"/api/v1/sites", "tok-alpha", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sites []*store.SiteSummary
	if err := json.NewDecoder(resp.Body).Decode(&sites); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sites) == 0 {
		t.Fatal("no site summaries")
	}

	// Drain: final events flush, streams close, readers finish.
	srv.BeginDrain()
	streamWG.Wait()

	evs := parseSSE(t, streams["tok-alpha"].String())
	if len(evs) == 0 {
		t.Fatal("alpha stream carried no events")
	}
	type key struct{ workload, site string }
	streamed := map[key]*SiteDeltaSSE{}
	runEvents := 0
	for _, ev := range evs {
		switch ev.event {
		case "run-ingested":
			runEvents++
			var re RunEvent
			if err := json.Unmarshal([]byte(ev.data), &re); err != nil {
				t.Fatalf("malformed run-ingested payload %q: %v", ev.data, err)
			}
			if re.Tenant != "alpha" {
				t.Fatalf("alpha stream leaked tenant %q event", re.Tenant)
			}
			if ev.id == "" || re.Run == "" || re.Workload == "" || len(re.Sites) == 0 {
				t.Fatalf("incomplete run-ingested event: id=%q %+v", ev.id, re)
			}
			for _, sd := range re.Sites {
				k := key{re.Workload, sd.Site}
				agg := streamed[k]
				if agg == nil {
					agg = &SiteDeltaSSE{Site: sd.Site}
					streamed[k] = agg
				}
				agg.Drag += sd.Drag
				agg.Bytes += sd.Bytes
				agg.Objects += sd.Objects
				agg.NeverUsed += sd.NeverUsed
			}
		case "compacted":
			var ce CompactEvent
			if err := json.Unmarshal([]byte(ev.data), &ce); err != nil {
				t.Fatalf("malformed compacted payload %q: %v", ev.data, err)
			}
			if ce.Tenant != "alpha" {
				t.Fatalf("alpha stream leaked tenant %q compaction", ce.Tenant)
			}
		default:
			t.Fatalf("unexpected event type %q", ev.event)
		}
	}
	if runEvents != len(streamWorkloads) {
		t.Fatalf("alpha stream carried %d run-ingested events, want %d", runEvents, len(streamWorkloads))
	}

	// Convergence: the summed streamed deltas equal the polled totals for
	// every additive field, site by site.
	if len(streamed) != len(sites) {
		t.Fatalf("streamed %d distinct sites, /sites has %d", len(streamed), len(sites))
	}
	for _, want := range sites {
		got := streamed[key{want.Name, want.Desc}]
		if got == nil {
			t.Fatalf("site %s/%s missing from stream", want.Name, want.Desc)
		}
		if got.Drag != want.Drag || got.Bytes != want.Bytes ||
			got.Objects != want.Count || got.NeverUsed != want.NeverUsed {
			t.Fatalf("site %s/%s streamed totals diverge: drag %d/%d bytes %d/%d objects %d/%d neverUsed %d/%d",
				want.Name, want.Desc, got.Drag, want.Drag, got.Bytes, want.Bytes,
				got.Objects, want.Count, got.NeverUsed, want.NeverUsed)
		}
	}

	// Beta's stream saw only beta.
	for _, ev := range parseSSE(t, streams["tok-beta"].String()) {
		if ev.event == "run-ingested" {
			var re RunEvent
			if err := json.Unmarshal([]byte(ev.data), &re); err != nil {
				t.Fatal(err)
			}
			if re.Tenant != "beta" {
				t.Fatalf("beta stream leaked tenant %q event", re.Tenant)
			}
		}
	}
}

// TestWatchResume checks Last-Event-ID replay from the ring over HTTP.
func TestWatchResume(t *testing.T) {
	_, ts := twoTenantServer(t, t.TempDir())
	for i := 0; i < 3; i++ {
		pushAs(t, ts, "tok-alpha", encodeLog(t, syntheticProfile("javac", 25, uint64(i+1))))
	}
	// Resume from event 1: events 2.. replay immediately.
	req := authedReq(t, http.MethodGet, ts.URL+"/api/v1/watch", "tok-alpha", nil)
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var raw strings.Builder
	deadline := time.Now().Add(5 * time.Second)
	for sc.Scan() && time.Now().Before(deadline) {
		raw.WriteString(sc.Text())
		raw.WriteByte('\n')
		if strings.Contains(raw.String(), "event: run-ingested") && strings.HasSuffix(raw.String(), "\n\n") {
			break
		}
	}
	evs := parseSSE(t, raw.String())
	if len(evs) == 0 {
		t.Fatal("no replayed events after resume")
	}
	if evs[0].id != "2" {
		t.Fatalf("first replayed event id %q, want 2", evs[0].id)
	}
}

// TestWatchResetPastRing checks that a Last-Event-ID older than the ring
// yields a reset event telling the client to re-sync.
func TestWatchResetPastRing(t *testing.T) {
	dir := t.TempDir()
	srv := New(Options{
		Tenants: []TenantConfig{{Name: "alpha", Token: "tok-alpha"}},
		OpenTenantStore: func(name string) (store.RunStore, error) {
			return store.Open(filepath.Join(dir, name))
		},
		Workers:         2,
		CompactDebounce: time.Millisecond,
		EventRing:       2,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	<-srv.OpenDone()
	for i := 0; i < 5; i++ {
		pushAs(t, ts, "tok-alpha", encodeLog(t, syntheticProfile("javac", 25, uint64(i+1))))
	}
	req := authedReq(t, http.MethodGet, ts.URL+"/api/v1/watch", "tok-alpha", nil)
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var raw strings.Builder
	for sc.Scan() {
		raw.WriteString(sc.Text())
		raw.WriteByte('\n')
		if strings.Contains(raw.String(), "event: reset") {
			return // got the reset
		}
		if strings.Count(raw.String(), "event: ") > 1 {
			break
		}
	}
	t.Fatalf("no reset event in stream:\n%s", raw.String())
}

// TestTenantAuthAndIsolation checks the 401 surface and that tenants
// cannot see each other's runs.
func TestTenantAuthAndIsolation(t *testing.T) {
	_, ts := twoTenantServer(t, t.TempDir())

	// No token, bad token: 401 with WWW-Authenticate on every /api route.
	for _, token := range []string{"", "tok-wrong"} {
		for _, probe := range []struct{ method, path string }{
			{http.MethodGet, "/api/v1/runs"},
			{http.MethodGet, "/api/v1/sites"},
			{http.MethodGet, "/api/v1/watch"},
			{http.MethodPost, "/api/v1/runs"},
		} {
			req := authedReq(t, probe.method, ts.URL+probe.path, token, strings.NewReader("x"))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnauthorized {
				t.Fatalf("%s %s token=%q = %d, want 401", probe.method, probe.path, token, resp.StatusCode)
			}
			if resp.Header.Get("WWW-Authenticate") == "" {
				t.Fatal("401 without WWW-Authenticate")
			}
		}
	}
	// The probes stay open to everyone.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	// Alpha's run is invisible to beta.
	ir := pushAs(t, ts, "tok-alpha", encodeLog(t, syntheticProfile("javac", 30, 1)))
	req := authedReq(t, http.MethodGet, ts.URL+"/api/v1/runs/"+ir.Run.ID, "tok-beta", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant run fetch = %d, want 404", resp.StatusCode)
	}
}

// TestTenantQuota checks per-tenant run quotas deny with 507 while other
// tenants keep ingesting.
func TestTenantQuota(t *testing.T) {
	dir := t.TempDir()
	srv := New(Options{
		Tenants: []TenantConfig{
			{Name: "small", Token: "tok-small", MaxRuns: 1},
			{Name: "big", Token: "tok-big"},
		},
		OpenTenantStore: func(name string) (store.RunStore, error) {
			return store.Open(filepath.Join(dir, name))
		},
		Workers:         2,
		CompactDebounce: time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	<-srv.OpenDone()

	pushAs(t, ts, "tok-small", encodeLog(t, syntheticProfile("javac", 30, 1)))
	req := authedReq(t, http.MethodPost, ts.URL+"/api/v1/runs", "tok-small",
		bytes.NewReader(encodeLog(t, syntheticProfile("javac", 30, 2))))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-quota push = %d, want 507", resp.StatusCode)
	}
	// The unlimited tenant is unaffected.
	pushAs(t, ts, "tok-big", encodeLog(t, syntheticProfile("javac", 30, 2)))

	// Quota denials are per-tenant counters and never 5xx-counted.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`dragserved_tenant_quota_denied_total{tenant="small"} 1`,
		`dragserved_tenant_quota_denied_total{tenant="big"} 0`,
		"dragserved_http_5xx_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestMetrics503ExcludedFrom5xx pins the alerting contract: degradation
// responses (503 while the store recovers or drains, 507 quota, 401
// auth) must never count as server errors.
func TestMetrics503ExcludedFrom5xx(t *testing.T) {
	release := make(chan struct{})
	srv := New(Options{
		OpenStore: func() (store.RunStore, error) {
			<-release
			return store.Open(t.TempDir())
		},
		Workers:         2,
		CompactDebounce: time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// Store not ready: queries and ingests answer 503.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/api/v1/sites")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("not-ready query = %d, want 503", resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("not-ready ingest = %d, want 503", resp.StatusCode)
	}
	close(release)
	<-srv.OpenDone()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(body)
	if !strings.Contains(text, "dragserved_http_5xx_total 0") {
		t.Fatalf("503s leaked into http_5xx:\n%s", text)
	}
	if !strings.Contains(text, "dragserved_not_ready_total 4") {
		t.Fatalf("not-ready counter wrong:\n%s", text)
	}
}

// TestDiffRejectsMixedSampleRates pins the 422 surface for diffing a
// sampled run against an exact one. The two are runs of different
// workloads: a tenant refuses a sampled run of a workload it holds exact
// runs of (409).
func TestDiffRejectsMixedSampleRates(t *testing.T) {
	_, ts := twoTenantServer(t, t.TempDir())
	exact := syntheticProfile("javac", 40, 1)
	sampled := syntheticProfile("javac-sampled", 40, 2)
	sampled.SampleRate = 0.5
	a := pushAs(t, ts, "tok-alpha", encodeLog(t, exact))
	b := pushAs(t, ts, "tok-alpha", encodeLog(t, sampled))
	url := fmt.Sprintf("%s/api/v1/diff?base=%s&head=%s", ts.URL, a.Run.ID, b.Run.ID)
	req := authedReq(t, http.MethodGet, url, "tok-alpha", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("mixed-rate diff = %d, want 422 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "sample-rate mismatch") {
		t.Fatalf("422 body lacks typed error text: %s", body)
	}
}
