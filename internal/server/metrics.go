package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
)

// metrics are dragserved's operational counters, exposed in Prometheus
// text exposition format on GET /metrics (stdlib-only: hand-rendered).
type metrics struct {
	ingestRequests    atomic.Int64
	ingestStored      atomic.Int64
	ingestDuplicates  atomic.Int64
	ingestSalvaged    atomic.Int64
	ingestTooLarge    atomic.Int64
	ingestUnmergeable atomic.Int64
	ingestErrors      atomic.Int64
	ingestShed        atomic.Int64
	ingestDrained     atomic.Int64
	ingestBytes       atomic.Int64
	quotaDenied       atomic.Int64
	authFailures      atomic.Int64
	watchConnects     atomic.Int64
	watchDropped      atomic.Int64
	notReady          atomic.Int64
	queries           atomic.Int64
	compactions       atomic.Int64
	compactErrors     atomic.Int64
	serverErrors      atomic.Int64
}

// handleMetrics serves even while the stores are still recovering — the
// store gauges simply appear once each tenant's store is open. Global
// counters keep their historical names; per-tenant and per-stream series
// carry a tenant label.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ready := int64(0)
	if s.Ready() {
		ready = 1
	}
	gauges := map[string]int64{
		"dragserved_ingest_requests_total":    s.metrics.ingestRequests.Load(),
		"dragserved_ingest_stored_total":      s.metrics.ingestStored.Load(),
		"dragserved_ingest_duplicates_total":  s.metrics.ingestDuplicates.Load(),
		"dragserved_ingest_salvaged_total":    s.metrics.ingestSalvaged.Load(),
		"dragserved_ingest_too_large_total":   s.metrics.ingestTooLarge.Load(),
		"dragserved_ingest_unmergeable_total": s.metrics.ingestUnmergeable.Load(),
		"dragserved_ingest_errors_total":      s.metrics.ingestErrors.Load(),
		"dragserved_ingest_shed_total":        s.metrics.ingestShed.Load(),
		"dragserved_ingest_drained_total":     s.metrics.ingestDrained.Load(),
		"dragserved_ingest_bytes_total":       s.metrics.ingestBytes.Load(),
		"dragserved_quota_denied_total":       s.metrics.quotaDenied.Load(),
		"dragserved_auth_failures_total":      s.metrics.authFailures.Load(),
		"dragserved_watch_connects_total":     s.metrics.watchConnects.Load(),
		"dragserved_watch_dropped_total":      s.metrics.watchDropped.Load(),
		"dragserved_not_ready_total":          s.metrics.notReady.Load(),
		"dragserved_queries_total":            s.metrics.queries.Load(),
		"dragserved_compactions_total":        s.metrics.compactions.Load(),
		"dragserved_compact_errors_total":     s.metrics.compactErrors.Load(),
		"dragserved_http_5xx_total":           s.metrics.serverErrors.Load(),
		"dragserved_ready":                    ready,
	}
	// The default tenant's store keeps the historical unlabeled gauges so
	// existing dashboards survive the multi-tenant turn-up.
	if rs := s.store(); rs != nil {
		gauges["dragserved_store_runs"] = int64(rs.NumRuns())
		gauges["dragserved_store_salvaged_runs"] = int64(rs.SalvagedRuns())
		gauges["dragserved_store_bytes"] = rs.TotalBytes()
		gauges["dragserved_store_quarantined"] = int64(len(rs.Quarantined()))
	}
	var logsRead int64
	for _, tn := range s.tenants {
		label := fmt.Sprintf(`{tenant=%q}`, tn.name)
		gauges["dragserved_tenant_ingest_requests_total"+label] = tn.m.ingestRequests.Load()
		gauges["dragserved_tenant_ingest_stored_total"+label] = tn.m.ingestStored.Load()
		gauges["dragserved_tenant_ingest_shed_total"+label] = tn.m.ingestShed.Load()
		gauges["dragserved_tenant_quota_denied_total"+label] = tn.m.quotaDenied.Load()
		gauges["dragserved_tenant_ingest_bytes_total"+label] = tn.m.ingestBytes.Load()
		gauges["dragserved_tenant_queries_total"+label] = tn.m.queries.Load()
		gauges["dragserved_tenant_watch_subscribers"+label] = int64(tn.events.Subscribers())
		gauges["dragserved_tenant_watch_dropped_total"+label] = tn.events.DropsTotal()
		if rs := tn.store(); rs != nil {
			gauges["dragserved_tenant_store_runs"+label] = int64(rs.NumRuns())
			gauges["dragserved_tenant_store_bytes"+label] = rs.TotalBytes()
			gauges["dragserved_tenant_store_quarantined"+label] = int64(len(rs.Quarantined()))
			logsRead += rs.CompactionLogsRead()
		}
	}
	// Logs read by compaction, summed over every tenant's store.
	gauges["dragserved_compaction_logs_read_total"] = logsRead
	names := make([]string, 0, len(gauges))
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, n := range names {
		fmt.Fprintf(w, "%s %d\n", n, gauges[n])
	}
}

// handleHealthz is pure liveness: 200 whenever the process can serve
// HTTP at all. Readiness lives on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports whether the server should receive traffic: 503
// while any tenant store's recovery scan is still running (or failed)
// and while the server drains for shutdown, 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	select {
	case <-s.readyCh:
	default:
		w.Header().Set("Retry-After", retryAfterSeconds)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "store recovery in progress")
		return
	}
	if err := s.ReadyErr(); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "store failed to open: %v\n", err)
		return
	}
	fmt.Fprintln(w, "ready")
}
