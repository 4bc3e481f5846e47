package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"syscall"

	"dragprof/internal/profile"
	"dragprof/internal/store"
)

// retryAfterSeconds is the Retry-After hint sent with every 429/503:
// shed load and recovery windows are short, so clients should come back
// quickly (with their own jitter — see Push).
const retryAfterSeconds = "1"

// IngestResponse is the JSON body of every POST /api/v1/runs reply.
type IngestResponse struct {
	// Run is the stored run (also set for duplicates and for salvaged
	// prefixes that were storable).
	Run *store.RunMeta `json:"run,omitempty"`
	// Salvage is present exactly when the upload was damaged (HTTP 422).
	Salvage *profile.SalvageReport `json:"salvage,omitempty"`
	// Duplicate marks a re-upload of an already-stored log (HTTP 200).
	Duplicate bool `json:"duplicate,omitempty"`
	// Error carries the failure description for 4xx/5xx replies.
	Error string `json:"error,omitempty"`
}

// handleIngest accepts one drag log per request, streamed through the
// store's block pipeline. Status codes:
//
//	201 clean upload stored
//	200 duplicate of a stored run
//	401 missing or unknown tenant token (multi-tenant mode)
//	409 the run cannot merge with its workload's stored runs (another
//	    sample rate or site table); nothing is stored
//	413 upload exceeds the size limit
//	422 damaged upload — body carries the SalvageReport; a salvageable
//	    prefix is stored and reported in Run
//	429 the tenant's in-flight ingest cap is reached — shed with
//	    Retry-After; retry
//	503 store still recovering, or server draining — Retry-After set
//	507 the store's disk is full, or the tenant's run/byte quota is
//	    exhausted
//	500 internal store fault (disk I/O)
//
// Damage is never a 5xx: the fault-injection matrix (truncation at every
// block boundary, bit flips) must land on 422 with a parseable report.
// Overload is never a 5xx either: past the in-flight cap the server
// sheds, it does not collapse.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantOf(r)
	s.metrics.ingestRequests.Add(1)
	tn.m.ingestRequests.Add(1)
	rs := tn.store()
	if rs == nil {
		s.metrics.notReady.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusServiceUnavailable, IngestResponse{Error: "store is recovering"})
		return
	}
	// Either BeginDrain's Wait sees this request, or this request sees
	// the draining flag — a late upload can never slip past the drain.
	if !s.admitIngest() {
		s.metrics.ingestDrained.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusServiceUnavailable, IngestResponse{Error: "server is draining"})
		return
	}
	defer s.ingestWG.Done()
	select {
	case tn.inflight <- struct{}{}:
		defer func() { <-tn.inflight }()
	default:
		s.metrics.ingestShed.Add(1)
		tn.m.ingestShed.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusTooManyRequests, IngestResponse{Error: "ingest at capacity, retry later"})
		return
	}
	if tn.overQuota(rs) {
		s.metrics.quotaDenied.Add(1)
		tn.m.quotaDenied.Add(1)
		writeJSON(w, http.StatusInsufficientStorage, IngestResponse{Error: "tenant quota exhausted"})
		return
	}

	res, err := rs.Ingest(store.LimitReader(r.Body, s.maxBytes), s.workers)
	if err != nil {
		s.metrics.ingestErrors.Add(1)
		s.logger.Printf("tenant %s: ingest: %v", tn.name, err)
		if errors.Is(err, syscall.ENOSPC) {
			writeJSON(w, http.StatusInsufficientStorage, IngestResponse{Error: "store disk is full"})
			return
		}
		writeJSON(w, http.StatusInternalServerError, IngestResponse{Error: "internal store error"})
		return
	}
	switch {
	case res.TooLarge:
		s.metrics.ingestTooLarge.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, IngestResponse{
			Error: "upload exceeds the size limit",
		})
	case res.Unmergeable != nil:
		s.metrics.ingestUnmergeable.Add(1)
		writeJSON(w, http.StatusConflict, IngestResponse{Error: res.Unmergeable.Error()})
	case res.Salvage != nil:
		s.metrics.ingestSalvaged.Add(1)
		if res.Meta != nil && !res.Duplicate {
			tn.m.ingestStored.Add(1)
			tn.m.ingestBytes.Add(res.Meta.Bytes)
			s.publishRunIngested(tn, res)
			s.kickCompactor()
		}
		writeJSON(w, http.StatusUnprocessableEntity, IngestResponse{
			Run:       res.Meta,
			Salvage:   res.Salvage,
			Duplicate: res.Duplicate,
			Error:     "damaged upload: " + res.Salvage.Summary(),
		})
	case res.Duplicate:
		s.metrics.ingestDuplicates.Add(1)
		writeJSON(w, http.StatusOK, IngestResponse{Run: res.Meta, Duplicate: true})
	default:
		s.metrics.ingestStored.Add(1)
		s.metrics.ingestBytes.Add(res.Meta.Bytes)
		tn.m.ingestStored.Add(1)
		tn.m.ingestBytes.Add(res.Meta.Bytes)
		s.publishRunIngested(tn, res)
		s.kickCompactor()
		writeJSON(w, http.StatusCreated, IngestResponse{Run: res.Meta})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
