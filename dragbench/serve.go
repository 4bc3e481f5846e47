package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dragprof/internal/server"
	"dragprof/internal/store"
)

// shards is the shard count of every store the benchmark opens.
const shards = 4

// defaultDebounce is dragserved's background compaction delay after a
// push, used when startDragserved is given none.
const defaultDebounce = 100 * time.Millisecond

// dragserved is an in-process dragserved on a loopback port with a client
// that holds one connection to it.
type dragserved struct {
	srv      *server.Server
	hs       *http.Server
	served   chan error
	base     string
	client   *http.Client
	st       *watchedStore
	debounce time.Duration
}

// watchedStore is the store dragserved serves, with the background
// compactor's merges counted while they run. dragserved's /sites merges
// through the store's own SiteSummaries, which this does not count.
type watchedStore struct {
	store.RunStore
	mu      sync.Mutex
	idle    *sync.Cond
	running int
}

func newWatchedStore(st store.RunStore) *watchedStore {
	w := &watchedStore{RunStore: st}
	w.idle = sync.NewCond(&w.mu)
	return w
}

// Compact implements store.RunStore.
func (w *watchedStore) Compact(workers int) error {
	w.mu.Lock()
	w.running++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.running--
		w.idle.Broadcast()
		w.mu.Unlock()
	}()
	return w.RunStore.Compact(workers)
}

// awaitCompactor returns once the background merge a push at pushed
// schedules has ended, or once its debounce has passed with no merge
// started. It waits without using the CPU.
func (d *dragserved) awaitCompactor(pushed time.Time) {
	if d.debounce >= time.Minute {
		return // held off for the whole run
	}
	time.Sleep(time.Until(pushed.Add(d.debounce + 50*time.Millisecond)))
	d.st.mu.Lock()
	for d.st.running > 0 {
		d.st.idle.Wait()
	}
	d.st.mu.Unlock()
}

// startDragserved serves st; debounce is the background compactor's delay
// after a push (0: dragserved's default).
func startDragserved(st store.RunStore, debounce time.Duration) (*dragserved, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if debounce <= 0 {
		debounce = defaultDebounce
	}
	ws := newWatchedStore(st)
	d := &dragserved{
		st:       ws,
		debounce: debounce,
		srv:      server.New(server.Options{Store: ws, CompactDebounce: debounce}),
		served:   make(chan error, 1),
		base:     "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close drains the service, stops the listener and waits for it.
func (d *dragserved) close() error {
	d.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	d.srv.Close()
	d.client.CloseIdleConnections()
	return err
}

// push uploads one log and returns the status and the decoded reply.
func (d *dragserved) push(body []byte) (int, *server.IngestResponse, error) {
	resp, err := d.client.Post(d.base+"/api/v1/runs", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, nil, fmt.Errorf("push: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("push: %w", err)
	}
	var out server.IngestResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("push: HTTP %d: bad reply: %w", resp.StatusCode, err)
	}
	return resp.StatusCode, &out, nil
}

// get fetches a path that must answer 200 and returns the body.
func (d *dragserved) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func (d *dragserved) sites(top int) ([]*store.SiteSummary, error) {
	path := "/api/v1/sites"
	if top > 0 {
		path += "?top=" + strconv.Itoa(top)
	}
	data, err := d.get(path)
	if err != nil {
		return nil, err
	}
	var out []*store.SiteSummary
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	return out, nil
}

func (d *dragserved) diff(base, head string) (*server.DiffResponse, error) {
	data, err := d.get("/api/v1/diff?base=" + base + "&head=" + head)
	if err != nil {
		return nil, err
	}
	var out server.DiffResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("diff: %w", err)
	}
	return &out, nil
}

// compactions reads dragserved_compactions_total from /metrics.
func (d *dragserved) compactions() (int64, error) {
	data, err := d.get("/metrics")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "dragserved_compactions_total "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no dragserved_compactions_total")
}

// timingFS is the real filesystem with the store's durability calls
// counted and timed.
type timingFS struct {
	store.OSFS
	syncs   atomic.Int64
	syncNs  atomic.Int64
	written atomic.Int64
}

type fsCounts struct {
	syncs   int64
	sync    time.Duration
	written int64
}

func (f *timingFS) counts() fsCounts {
	return fsCounts{f.syncs.Load(), time.Duration(f.syncNs.Load()), f.written.Load()}
}

func (c fsCounts) sub(d fsCounts) fsCounts {
	return fsCounts{c.syncs - d.syncs, c.sync - d.sync, c.written - d.written}
}

func (f *timingFS) timeSync(sync func() error) error {
	start := time.Now()
	err := sync()
	f.syncNs.Add(int64(time.Since(start)))
	f.syncs.Add(1)
	return err
}

// CreateTemp implements store.FS.
func (f *timingFS) CreateTemp(dir, pattern string) (store.File, error) {
	file, err := f.OSFS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

// SyncDir implements store.FS.
func (f *timingFS) SyncDir(dir string) error {
	return f.timeSync(func() error { return f.OSFS.SyncDir(dir) })
}

type timingFile struct {
	store.File
	fs *timingFS
}

func (t *timingFile) Write(p []byte) (int, error) {
	n, err := t.File.Write(p)
	t.fs.written.Add(int64(n))
	return n, err
}

func (t *timingFile) Sync() error { return t.fs.timeSync(t.File.Sync) }
