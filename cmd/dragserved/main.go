// Command dragserved is the continuous drag-profiling service: a daemon
// that ingests binary drag logs pushed by cmd/dragprof (-push), stores
// them content-addressed on disk, merges runs of the same workload into
// cross-run per-site summaries in the background, and answers report and
// regression-diff queries over HTTP.
//
// The canonical report served for a run is byte-identical to
// `draganalyze -format canonical` over the same log — the service adds
// durability and cross-run queries, never a different answer.
//
// The daemon binds its port immediately and opens the store (with its
// crash-recovery scan) in the background: /healthz answers 200 as soon
// as the process is up (liveness), while /readyz stays 503 until
// recovery finishes and flips back to 503 while draining for shutdown
// (readiness — point load balancers and smoke tests here). Ingest
// concurrency is bounded; excess load is shed with 429 + Retry-After.
//
// Endpoints:
//
//	POST /api/v1/runs                 ingest one drag log (body: the log)
//	GET  /api/v1/runs                 list stored runs
//	GET  /api/v1/runs/{id}            one run's metadata
//	GET  /api/v1/runs/{id}/report     ?format=canonical|text|json|sarif
//	GET  /api/v1/sites                ?sort=drag|bytes|objects|neverused
//	GET  /api/v1/diff?base=ID&head=ID cross-run regression diff
//	GET  /api/v1/watch                live per-site drag deltas (SSE)
//	GET  /metrics, /healthz, /readyz, /debug/pprof/...
//
// With -shards N (default 1) a new store is partitioned by run hash into
// N shard directories; an existing store keeps the count it was created
// with. Query answers are byte-identical for every count. With -tenants FILE (a JSON
// array of {name, token, maxRuns, maxBytes, maxInFlight}) every /api/
// route requires "Authorization: Bearer <token>" and each tenant gets an
// isolated store under DIR/tenants/<name>, its own quotas, and its own
// /watch stream.
//
// Usage:
//
//	dragserved [-addr :8357] [-data DIR] [-workers n]
//	           [-request-timeout 60s] [-max-upload 1073741824]
//	           [-max-inflight 64] [-shards N] [-tenants FILE]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"dragprof/internal/cli"
	"dragprof/internal/server"
	"dragprof/internal/store"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8357", "listen address")
	data := flag.String("data", "dragserved-data", "store directory")
	workers := flag.Int("workers", 0, "analysis workers per request (0: GOMAXPROCS)")
	reqTimeout := flag.Duration("request-timeout", 60*time.Second, "per-request timeout for query endpoints")
	maxUpload := flag.Int64("max-upload", 1<<30, "maximum upload size in bytes")
	maxInflight := flag.Int("max-inflight", 64, "maximum concurrent ingest requests before shedding with 429")
	shards := flag.Int("shards", 1, "shard directories per new store (an existing store keeps its count)")
	heartbeat := flag.Duration("heartbeat", 15*time.Second, "keep-alive comment interval on /watch SSE streams")
	tenantsFile := flag.String("tenants", "", "JSON tenant config enabling bearer-token multi-tenant mode")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: dragserved [flags]")
		flag.PrintDefaults()
		return cli.ExitUsage
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "dragserved: -shards %d: want at least 1\n", *shards)
		return cli.ExitUsage
	}

	logger := log.New(os.Stderr, "dragserved: ", log.LstdFlags)
	openRoot := func(dir string) (store.RunStore, error) { return store.OpenSharded(dir, *shards) }
	opts := server.Options{
		Workers:           *workers,
		MaxUploadBytes:    *maxUpload,
		MaxInFlightIngest: *maxInflight,
		RequestTimeout:    *reqTimeout,
		HeartbeatInterval: *heartbeat,
		Log:               logger,
	}
	if *tenantsFile != "" {
		cfg, err := loadTenants(*tenantsFile)
		if err != nil {
			logger.Printf("tenants: %v", err)
			return cli.ExitUsage
		}
		opts.Tenants = cfg
		opts.OpenTenantStore = func(name string) (store.RunStore, error) {
			return openRoot(filepath.Join(*data, "tenants", name))
		}
	} else {
		opts.OpenStore = func() (store.RunStore, error) { return openRoot(*data) }
	}
	// The stores open in the background so the port binds and the
	// probes answer while the recovery scans chew through large (or
	// damaged) data directories.
	srv := server.New(opts)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: drain in-flight ingest (readyz flips 503 so
	// balancers stop routing), finish in-flight requests, then run a
	// final compaction so the store is clean on disk before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	var lwg sync.WaitGroup
	lwg.Add(1)
	go func() {
		defer lwg.Done()
		errCh <- httpSrv.ListenAndServe()
	}()
	logger.Printf("listening on %s, store at %s (recovery scan in background)", *addr, *data)

	select {
	case err := <-errCh:
		logger.Print(err)
		srv.Close()
		lwg.Wait()
		return cli.ExitFailure
	case <-srv.OpenDone():
		if err := srv.ReadyErr(); err != nil {
			// The store can never become ready; surface the failure and
			// exit instead of serving 503 forever.
			logger.Printf("store open failed: %v", err)
			shutdownListener(httpSrv, logger)
			srv.Close()
			lwg.Wait()
			return cli.ExitFailure
		}
		st := srv.Store()
		logger.Printf("ready: %d runs, %d bytes, %d quarantined",
			st.NumRuns(), st.TotalBytes(), len(st.Quarantined()))
	case <-ctx.Done():
		logger.Print("shutting down before the store opened")
		shutdownListener(httpSrv, logger)
		srv.Close()
		lwg.Wait()
		return cli.ExitOK
	}

	select {
	case err := <-errCh:
		logger.Print(err)
		srv.Close()
		lwg.Wait()
		return cli.ExitFailure
	case <-ctx.Done():
	}
	logger.Print("shutting down: draining ingest")
	srv.BeginDrain()
	shutdownListener(httpSrv, logger)
	srv.Close()
	lwg.Wait()
	return cli.ExitOK
}

// loadTenants reads the -tenants JSON config: a non-empty array of
// {name, token, maxRuns, maxBytes, maxInFlight} objects.
func loadTenants(path string) ([]server.TenantConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg []server.TenantConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(cfg) == 0 {
		return nil, fmt.Errorf("%s: no tenants defined", path)
	}
	for _, t := range cfg {
		if t.Name == "" || t.Token == "" {
			return nil, fmt.Errorf("%s: every tenant needs a name and a token", path)
		}
	}
	return cfg, nil
}

func shutdownListener(httpSrv *http.Server, logger *log.Logger) {
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("shutdown: %v", err)
	}
}
