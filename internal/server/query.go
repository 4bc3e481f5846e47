package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"dragprof/internal/drag"
	"dragprof/internal/report"
	"dragprof/internal/store"
)

// queryStore bumps the query counters and returns the request tenant's
// store. The readiness gate in front of every query route guarantees it
// is non-nil by the time a handler runs.
func (s *Server) queryStore(r *http.Request) store.RunStore {
	s.metrics.queries.Add(1)
	tn := s.tenantOf(r)
	tn.m.queries.Add(1)
	return tn.store()
}

// handleRuns lists the stored runs (sorted by id — deterministic).
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	rs := s.queryStore(r)
	writeJSON(w, http.StatusOK, rs.Runs())
}

// handleRun returns one run's metadata.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	rs := s.queryStore(r)
	m, ok := rs.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// handleReport renders one run's drag report. Every format is rendered on
// request from one analysis of the stored log under default options.
//
//	?format=canonical (default) — the CanonicalDump bytes: byte-identical
//	        to `draganalyze -format canonical` over the same log, the
//	        cross-network determinism oracle
//	?format=text|json|sarif — the draganalyze renderings (shared code path)
//	?top=N — site count for text/json/sarif (default 10)
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rs := s.queryStore(r)
	m, ok := rs.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "canonical"
	}
	top := 10
	if t := r.URL.Query().Get("top"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n < 0 {
			http.Error(w, "bad top parameter", http.StatusBadRequest)
			return
		}
		top = n
	}

	rep, err := rs.Report(m.ID, drag.Options{}, s.workers)
	if err != nil {
		s.logger.Printf("report %s: %v", m.ID, err)
		http.Error(w, "internal store error", http.StatusInternalServerError)
		return
	}
	switch format {
	case "canonical":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(rep.CanonicalDump())
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if m.Salvaged && m.Salvage != nil && !m.Salvage.Clean() {
			fmt.Fprintf(w, "WARNING: partial data — %s\n\n", m.Salvage.Summary())
		}
		report.DragText(w, rep, m.Records, top)
	case "json":
		out, err := report.DiagnosticsJSON(report.DragDiagnostics(rep, m.Salvage, top))
		if err != nil {
			http.Error(w, "internal render error", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, out)
	case "sarif":
		out, err := report.SARIF("dragserved", "3", report.DragRules(), report.DragDiagnostics(rep, m.Salvage, top))
		if err != nil {
			http.Error(w, "internal render error", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, out)
	default:
		http.Error(w, "unknown format (want canonical, text, json or sarif)", http.StatusBadRequest)
	}
}

// handleSites serves the compacted cross-run per-site summaries.
//
//	?sort=drag (default) | bytes | objects | neverused
//	?format=json (default) | text
//	?top=N — cap the list
func (s *Server) handleSites(w http.ResponseWriter, r *http.Request) {
	rs := s.queryStore(r)
	sums, err := rs.SiteSummaries(s.workers)
	if err != nil {
		s.logger.Printf("sites: %v", err)
		http.Error(w, "internal store error", http.StatusInternalServerError)
		return
	}
	sortKey := r.URL.Query().Get("sort")
	if sortKey == "" {
		sortKey = "drag"
	}
	if !sortSites(sums, sortKey) {
		http.Error(w, "unknown sort (want drag, bytes, objects or neverused)", http.StatusBadRequest)
		return
	}
	if t := r.URL.Query().Get("top"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n < 0 {
			http.Error(w, "bad top parameter", http.StatusBadRequest)
			return
		}
		if n < len(sums) {
			sums = sums[:n]
		}
	}
	if sums == nil {
		sums = []*store.SiteSummary{}
	}
	switch r.URL.Query().Get("format") {
	case "", "json":
		writeJSON(w, http.StatusOK, sums)
	case "text":
		tbl := report.Table{
			Title:   "cross-run drag sites",
			Columns: []string{"workload", "site", "runs", "objects", "never-used", "bytes", "drag-byte2", "pattern"},
		}
		for _, s := range sums {
			tbl.AddRow(s.Name, s.Desc, s.Runs, s.Count, s.NeverUsed, s.Bytes, s.Drag, s.Pattern)
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, tbl.String())
	default:
		http.Error(w, "unknown format (want json or text)", http.StatusBadRequest)
	}
}

// sortSites re-sorts in place; ties always break by workload name, site
// and chain key (store.SortSites) so every ordering is total and
// deterministic.
func sortSites(sums []*store.SiteSummary, key string) bool {
	var metric func(s *store.SiteSummary) int64
	switch key {
	case "drag":
		metric = func(s *store.SiteSummary) int64 { return s.Drag }
	case "bytes":
		metric = func(s *store.SiteSummary) int64 { return s.Bytes }
	case "objects":
		metric = func(s *store.SiteSummary) int64 { return int64(s.Count) }
	case "neverused":
		metric = func(s *store.SiteSummary) int64 { return int64(s.NeverUsed) }
	default:
		return false
	}
	store.SortSites(sums, metric)
	return true
}

// DiffResponse is the JSON body of GET /api/v1/diff: the paper's
// savings-table arithmetic between two stored runs plus the per-site drag
// deltas over the union of both reports' sites.
type DiffResponse struct {
	Base     string `json:"base"`
	Head     string `json:"head"`
	Workload string `json:"workload"`
	// Savings of head over base (positive: head improved).
	DragSavingPct  float64 `json:"dragSavingPct"`
	SpaceSavingPct float64 `json:"spaceSavingPct"`
	// Integrals in MByte².
	BaseReachableMB2 float64 `json:"baseReachableMB2"`
	HeadReachableMB2 float64 `json:"headReachableMB2"`
	BaseInUseMB2     float64 `json:"baseInUseMB2"`
	HeadInUseMB2     float64 `json:"headInUseMB2"`
	// Sites are ordered by |drag delta| descending.
	Sites []SiteDeltaJSON `json:"sites"`
}

// SiteDeltaJSON is drag.SiteDelta with a materialized status string.
type SiteDeltaJSON struct {
	Site      string `json:"site"`
	Status    string `json:"status"`
	BaseDrag  int64  `json:"baseDrag"`
	HeadDrag  int64  `json:"headDrag"`
	DragDelta int64  `json:"dragDelta"`
	BaseCount int    `json:"baseObjects"`
	HeadCount int    `json:"headObjects"`
	BaseBytes int64  `json:"baseBytes"`
	HeadBytes int64  `json:"headBytes"`
}

// handleDiff compares two stored runs: ?base=<id>&head=<id>, the
// cross-run regression query. ?format=json (default) | text.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	rs := s.queryStore(r)
	baseID, headID := r.URL.Query().Get("base"), r.URL.Query().Get("head")
	if baseID == "" || headID == "" {
		http.Error(w, "diff needs base and head run ids", http.StatusBadRequest)
		return
	}
	base, ok := rs.Get(baseID)
	if !ok {
		http.Error(w, "unknown base run", http.StatusNotFound)
		return
	}
	head, ok := rs.Get(headID)
	if !ok {
		http.Error(w, "unknown head run", http.StatusNotFound)
		return
	}
	baseRep, err := rs.Report(base.ID, drag.Options{}, s.workers)
	if err != nil {
		s.logger.Printf("diff: %v", err)
		http.Error(w, "internal store error", http.StatusInternalServerError)
		return
	}
	headRep, err := rs.Report(head.ID, drag.Options{}, s.workers)
	if err != nil {
		s.logger.Printf("diff: %v", err)
		http.Error(w, "internal store error", http.StatusInternalServerError)
		return
	}

	c, err := drag.CompareChecked(baseRep, headRep)
	if err != nil {
		// A sampled run diffed against an exact one (or two distinct
		// rates): the deltas would mix estimator scales. Client error,
		// mirroring drag.CheckMergeable's guard on cross-run merges.
		if errors.Is(err, drag.ErrRateMismatch) {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		s.logger.Printf("diff: %v", err)
		http.Error(w, "internal compare error", http.StatusInternalServerError)
		return
	}
	resp := DiffResponse{
		Base:             base.ID,
		Head:             head.ID,
		Workload:         workloadLabel(base.Name, head.Name),
		DragSavingPct:    c.DragSavingPct,
		SpaceSavingPct:   c.SpaceSavingPct,
		BaseReachableMB2: c.OriginalReachable,
		HeadReachableMB2: c.ReducedReachable,
		BaseInUseMB2:     c.OriginalInUse,
		HeadInUseMB2:     c.ReducedInUse,
	}
	for _, d := range c.Sites {
		resp.Sites = append(resp.Sites, SiteDeltaJSON{
			Site:      d.Desc,
			Status:    d.Status(),
			BaseDrag:  d.BaseDrag,
			HeadDrag:  d.HeadDrag,
			DragDelta: d.DragDelta,
			BaseCount: d.BaseCount,
			HeadCount: d.HeadCount,
			BaseBytes: d.BaseBytes,
			HeadBytes: d.HeadBytes,
		})
	}

	switch r.URL.Query().Get("format") {
	case "", "json":
		writeJSON(w, http.StatusOK, resp)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "diff %s (base %s, head %s)\n", resp.Workload, short(base.ID), short(head.ID))
		fmt.Fprintf(w, "drag saving: %.1f%%   space saving: %.1f%%\n", c.DragSavingPct, c.SpaceSavingPct)
		fmt.Fprintf(w, "reachable integral: %.4f -> %.4f MB²\n\n", c.OriginalReachable, c.ReducedReachable)
		tbl := report.Table{
			Columns: []string{"site", "status", "base-drag", "head-drag", "delta"},
		}
		for _, d := range resp.Sites {
			tbl.AddRow(d.Site, d.Status, d.BaseDrag, d.HeadDrag, d.DragDelta)
		}
		fmt.Fprint(w, tbl.String())
	default:
		http.Error(w, "unknown format (want json or text)", http.StatusBadRequest)
	}
}

func workloadLabel(base, head string) string {
	if base == head {
		return base
	}
	return base + " vs " + head
}

func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
