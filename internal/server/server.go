// Package server implements dragserved, the continuous drag-profiling
// service: it ingests binary drag logs over HTTP (streamed block-by-block,
// damaged uploads salvaged rather than crashed on), keeps them in a
// content-addressed store with background cross-run compaction, and
// answers report, site and regression-diff queries whose canonical output
// is byte-identical to a local draganalyze run over the same log.
//
// The service degrades instead of falling over: each tenant's store opens
// (and runs its recovery scan) in the background while /healthz already
// answers, /readyz flips true only once recovery completes and back to
// false while draining, ingest concurrency is bounded per tenant and
// sheds excess load with 429 + Retry-After, quotas deny with 507, and
// shutdown drains in-flight ingests, closes the event streams, and stops
// the compactor before the stores are left behind.
//
// Multi-tenant mode (Options.Tenants) isolates namespaces end to end:
// bearer-token auth resolves every /api/ request to a tenant with its own
// store root, its own quotas and in-flight cap, its own live event stream
// (GET /api/v1/watch, SSE), and its own metrics.
package server

import (
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dragprof/internal/server/events"
	"dragprof/internal/store"
)

// Options configure a Server.
type Options struct {
	// Store is the backing run store for single-tenant mode. Exactly one
	// of Store, OpenStore, or Tenants+OpenTenantStore is required.
	Store store.RunStore
	// OpenStore opens the single-tenant store in the background: the
	// server starts serving /healthz immediately and reports not-ready
	// (503 + Retry-After on data endpoints, /readyz false) until it
	// returns. An open failure pins the server not-ready; ReadyErr
	// exposes it.
	OpenStore func() (store.RunStore, error)
	// Tenants switches on multi-tenant mode: bearer-token auth on every
	// /api/ route, one isolated store per tenant (opened in the
	// background via OpenTenantStore), per-tenant quotas and streams.
	Tenants []TenantConfig
	// OpenTenantStore opens one tenant's store by name; required when
	// Tenants is set.
	OpenTenantStore func(name string) (store.RunStore, error)
	// Workers bounds per-request analysis parallelism (0: GOMAXPROCS).
	Workers int
	// MaxUploadBytes rejects larger uploads with 413 (default 1 GiB).
	MaxUploadBytes int64
	// MaxInFlightIngest bounds concurrently-served ingest requests per
	// tenant; excess load is shed with 429 + Retry-After (default 64).
	MaxInFlightIngest int
	// RequestTimeout bounds query handling (default 60s). Ingest and
	// /watch are exempt: uploads are bounded by size, streams by the
	// client.
	RequestTimeout time.Duration
	// CompactDebounce delays background compaction after an ingest so
	// bursts coalesce into one merge (default 100ms).
	CompactDebounce time.Duration
	// HeartbeatInterval paces SSE keep-alive comments on /watch
	// (default 15s).
	HeartbeatInterval time.Duration
	// EventRing and EventBuffer size each tenant's broadcaster: events
	// kept for Last-Event-ID resume, and each subscriber's bounded
	// delivery buffer (defaults 256 and 64).
	EventRing   int
	EventBuffer int
	// Log receives request and compaction logging; nil discards it.
	Log *log.Logger
}

// Server is the dragserved HTTP service.
type Server struct {
	tenants      []*tenant
	byToken      map[string]*tenant
	authRequired bool

	workers   int
	maxBytes  int64
	heartbeat time.Duration
	logger    *log.Logger
	handler   http.Handler

	metrics metrics

	// readyCh closes when every background store open finishes (for
	// better or worse); per-tenant failures live on the tenants.
	readyCh chan struct{}
	// draining flips once shutdown begins; ingestWG counts in-flight
	// ingest requests so drain can wait them out. drainMu orders the two:
	// admitIngest adds to ingestWG and BeginDrain flips draining under it,
	// so no Add can run once BeginDrain is in Wait.
	drainMu  sync.Mutex
	draining atomic.Bool
	ingestWG sync.WaitGroup

	compactKick chan struct{}
	debounce    time.Duration
	done        chan struct{}
	wg          sync.WaitGroup
	drainOnce   sync.Once
	closeOnce   sync.Once
}

// New builds the service and starts its background compactor (and the
// background store opens).
func New(opts Options) *Server {
	if opts.Store == nil && opts.OpenStore == nil && len(opts.Tenants) == 0 {
		panic("server: Options.Store, Options.OpenStore or Options.Tenants is required")
	}
	if len(opts.Tenants) > 0 && opts.OpenTenantStore == nil {
		panic("server: Options.Tenants requires Options.OpenTenantStore")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = 1 << 30
	}
	if opts.MaxInFlightIngest <= 0 {
		opts.MaxInFlightIngest = 64
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 60 * time.Second
	}
	if opts.CompactDebounce <= 0 {
		opts.CompactDebounce = 100 * time.Millisecond
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 15 * time.Second
	}
	if opts.Log == nil {
		opts.Log = log.New(discard{}, "", 0)
	}
	s := &Server{
		byToken:     make(map[string]*tenant),
		workers:     opts.Workers,
		maxBytes:    opts.MaxUploadBytes,
		heartbeat:   opts.HeartbeatInterval,
		logger:      opts.Log,
		readyCh:     make(chan struct{}),
		compactKick: make(chan struct{}, 1),
		debounce:    opts.CompactDebounce,
		done:        make(chan struct{}),
	}

	newTenant := func(cfg TenantConfig) *tenant {
		capIngest := cfg.MaxInFlightIngest
		if capIngest <= 0 {
			capIngest = opts.MaxInFlightIngest
		}
		return &tenant{
			name:     cfg.Name,
			token:    cfg.Token,
			maxRuns:  cfg.MaxRuns,
			maxBytes: cfg.MaxBytes,
			inflight: make(chan struct{}, capIngest),
			events:   events.New(opts.EventRing, opts.EventBuffer),
		}
	}
	if len(opts.Tenants) > 0 {
		s.authRequired = true
		for _, cfg := range opts.Tenants {
			if cfg.Name == "" || cfg.Token == "" {
				panic("server: every tenant needs a name and a token")
			}
			tn := newTenant(cfg)
			if _, dup := s.byToken[cfg.Token]; dup {
				panic("server: duplicate tenant token")
			}
			s.tenants = append(s.tenants, tn)
			s.byToken[cfg.Token] = tn
		}
	} else {
		s.tenants = []*tenant{newTenant(TenantConfig{Name: "default", Token: "-"})}
	}

	api := http.NewServeMux()
	api.HandleFunc("GET /api/v1/runs", s.handleRuns)
	api.HandleFunc("GET /api/v1/runs/{id}", s.handleRun)
	api.HandleFunc("GET /api/v1/runs/{id}/report", s.handleReport)
	api.HandleFunc("GET /api/v1/sites", s.handleSites)
	api.HandleFunc("GET /api/v1/diff", s.handleDiff)

	// The timeout middleware buffers responses, which would break pprof's
	// streaming endpoints, the SSE stream, and ingest (uploads are
	// bounded by MaxUploadBytes, not wall clock) — so those routes bypass
	// it. The probes and /metrics also bypass it (and the readiness
	// gate): they must answer while the stores are still recovering. All
	// /api/ routes sit behind the tenant auth middleware.
	timed := http.TimeoutHandler(api, opts.RequestTimeout, "request timed out\n")
	root := http.NewServeMux()
	root.Handle("POST /api/v1/runs", s.auth(http.HandlerFunc(s.handleIngest)))
	root.Handle("GET /api/v1/watch", s.auth(http.HandlerFunc(s.handleWatch)))
	root.HandleFunc("GET /healthz", s.handleHealthz)
	root.HandleFunc("GET /readyz", s.handleReadyz)
	root.HandleFunc("GET /metrics", s.handleMetrics)
	root.Handle("/debug/pprof/", http.HandlerFunc(pprof.Index))
	root.Handle("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
	root.Handle("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
	root.Handle("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
	root.Handle("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
	root.Handle("/", s.auth(s.readyGate(timed)))
	s.handler = s.logged(root)

	if opts.Store != nil && !s.authRequired {
		s.tenants[0].st.Store(&storeBox{rs: opts.Store})
		close(s.readyCh)
	} else {
		open := opts.OpenTenantStore
		if open == nil {
			open = func(string) (store.RunStore, error) { return opts.OpenStore() }
		}
		s.wg.Add(1)
		go s.opener(open)
	}
	s.wg.Add(1)
	go s.compactor()
	return s
}

// opener runs every tenant's store open (with its recovery scan) off the
// serving path, so the process binds its port and answers probes
// immediately. Tenants come ready one by one; readyCh closes once all
// opens have finished either way.
func (s *Server) opener(open func(name string) (store.RunStore, error)) {
	defer s.wg.Done()
	defer close(s.readyCh)
	for _, tn := range s.tenants {
		start := time.Now()
		rs, err := open(tn.name)
		if err != nil {
			tn.openErr.Store(&err)
			s.logger.Printf("tenant %s: store open failed: %v", tn.name, err)
			continue
		}
		tn.st.Store(&storeBox{rs: rs})
		s.logger.Printf("tenant %s: store ready in %v (%d runs, %d quarantined)",
			tn.name, time.Since(start).Round(time.Millisecond), rs.NumRuns(), len(rs.Quarantined()))
		if rs.Dirty() {
			s.kickCompactor()
		}
	}
}

// store returns the default tenant's store — the single-tenant accessor
// (nil while opening or after a failed open).
func (s *Server) store() store.RunStore { return s.tenants[0].store() }

// Ready reports whether the server can take traffic: every tenant's
// store finished its recovery scan and shutdown has not begun.
func (s *Server) Ready() bool {
	select {
	case <-s.readyCh:
	default:
		return false
	}
	for _, tn := range s.tenants {
		if tn.store() == nil {
			return false
		}
	}
	return !s.draining.Load()
}

// ReadyErr returns the first tenant's store-open failure, if any
// background open failed. It reports nil while opens are in progress.
func (s *Server) ReadyErr() error {
	for _, tn := range s.tenants {
		if p := tn.openErr.Load(); p != nil {
			return *p
		}
	}
	return nil
}

// OpenDone closes when every background store open has finished, either
// way; check ReadyErr afterwards.
func (s *Server) OpenDone() <-chan struct{} { return s.readyCh }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Store exposes the default tenant's backing store (read-only use:
// tests, stats). It is nil until the background open completes.
func (s *Server) Store() store.RunStore { return s.store() }

// TenantStore exposes one tenant's backing store by name (read-only
// use); nil when unknown or not yet open.
func (s *Server) TenantStore(name string) store.RunStore {
	for _, tn := range s.tenants {
		if tn.name == name {
			return tn.store()
		}
	}
	return nil
}

// BeginDrain flips the server not-ready (readyz 503, new ingests shed
// with 503 + Retry-After), waits for every in-flight ingest to finish,
// then closes every tenant's event stream — in that order, so the final
// ingests' events still reach subscribers before their streams end. Call
// it before stopping the HTTP listener: load balancers stop routing,
// uploads complete, and open /watch connections terminate instead of
// pinning the listener's graceful shutdown forever.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.drainMu.Lock()
		s.draining.Store(true)
		s.drainMu.Unlock()
		s.ingestWG.Wait()
		for _, tn := range s.tenants {
			tn.events.Close()
		}
	})
}

// admitIngest registers an upload with the drain barrier unless the
// server is draining; an admitted upload must call ingestWG.Done.
func (s *Server) admitIngest() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.ingestWG.Add(1)
	return true
}

// Close shuts the service down in dependency order: drain in-flight
// ingest and end event streams, stop the background goroutines
// (compactor, opener) via their WaitGroup, then run one final compaction
// so nothing dirty is left behind. Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.BeginDrain()
		close(s.done)
		s.wg.Wait()
		s.compactNow()
	})
}

// readyGate rejects data-plane requests with 503 + Retry-After until the
// request's tenant store has finished recovering.
func (s *Server) readyGate(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.tenantOf(r).store() == nil {
			s.metrics.notReady.Add(1)
			w.Header().Set("Retry-After", retryAfterSeconds)
			msg := "store is recovering"
			if s.ReadyErr() != nil {
				msg = "store failed to open"
			}
			writeJSON(w, http.StatusServiceUnavailable, IngestResponse{Error: msg})
			return
		}
		h.ServeHTTP(w, r)
	})
}

// kickCompactor schedules a background compaction (coalescing kicks).
func (s *Server) kickCompactor() {
	select {
	case s.compactKick <- struct{}{}:
	default:
	}
}

// compactor is the background merge loop: each kick is debounced so a
// burst of pushes compacts once, after the burst. It idles until the
// stores are ready.
func (s *Server) compactor() {
	defer s.wg.Done()
	select {
	case <-s.done:
		return
	case <-s.readyCh:
	}
	for {
		select {
		case <-s.done:
			return
		case <-s.compactKick:
		}
		timer := time.NewTimer(s.debounce)
		select {
		case <-s.done:
			timer.Stop()
			return
		case <-timer.C:
		}
		s.compactNow()
	}
}

// compactNow merges every tenant's stale summaries and announces each
// completed merge on that tenant's event stream.
func (s *Server) compactNow() {
	for _, tn := range s.tenants {
		rs := tn.store()
		if rs == nil || !rs.Dirty() {
			continue
		}
		start := time.Now()
		if err := rs.Compact(s.workers); err != nil {
			s.metrics.compactErrors.Add(1)
			s.logger.Printf("tenant %s: compact: %v", tn.name, err)
			continue
		}
		s.metrics.compactions.Add(1)
		s.logger.Printf("tenant %s: compact: merged summaries in %v",
			tn.name, time.Since(start).Round(time.Millisecond))
		s.publishCompacted(tn, rs)
	}
}

// logged wraps the handler with request logging and a 5xx counter.
func (s *Server) logged(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		// 503 (recovering/draining) and 507 (tenant quota) are deliberate
		// shedding, not faults; only genuine server errors page anyone.
		if rec.status >= 500 && rec.status != http.StatusServiceUnavailable &&
			rec.status != http.StatusInsufficientStorage {
			s.metrics.serverErrors.Add(1)
		}
		s.logger.Printf("%s %s -> %d", r.Method, r.URL.Path, rec.status)
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streaming works through
// the logging middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
