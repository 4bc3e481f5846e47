package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dragprof/internal/server/events"
	"dragprof/internal/store"
)

// Event payloads for GET /api/v1/watch (SSE). Every event carries the
// tenant so multiplexing consumers can tell streams apart, and the
// per-site numbers are exactly the additive components of the compacted
// summaries: summing the sites of every run-ingested event reproduces the
// /sites totals (drag, in-use, bytes, objects, never-used). The pattern is
// absent: it is classified from the merged drag-time moments, which the
// events do not carry, not summed from per-run patterns.
type (
	// RunEvent is the "run-ingested" payload: one stored run and its
	// per-site drag deltas.
	RunEvent struct {
		Tenant    string         `json:"tenant"`
		Run       string         `json:"run"`
		Workload  string         `json:"workload"`
		Salvaged  bool           `json:"salvaged,omitempty"`
		Bytes     int64          `json:"bytes"`
		TotalDrag int64          `json:"totalDrag"`
		Sites     []SiteDeltaSSE `json:"sites"`
	}
	// SiteDeltaSSE is one allocation site's contribution in a RunEvent.
	SiteDeltaSSE struct {
		Site      string `json:"site"`
		Drag      int64  `json:"drag"`
		InUse     int64  `json:"inUse"`
		Bytes     int64  `json:"bytes"`
		Objects   int    `json:"objects"`
		NeverUsed int    `json:"neverUsed"`
	}
	// CompactEvent is the "compacted" payload: a tenant's summaries were
	// re-merged; Runs/Bytes are the store totals afterwards.
	CompactEvent struct {
		Tenant string `json:"tenant"`
		Runs   int    `json:"runs"`
		Bytes  int64  `json:"bytes"`
	}
	// GapEvent is the "gap" payload: the subscriber was too slow and
	// Dropped events were discarded; totals must be re-synced from a
	// /sites poll.
	GapEvent struct {
		Dropped int64 `json:"dropped"`
	}
	// ResetEvent is the "reset" payload: the Last-Event-ID the client
	// resumed from has left the ring; the stream restarts from now and
	// the client must re-sync from a /sites poll.
	ResetEvent struct {
		Reason string `json:"reason"`
	}
)

// publishRunIngested turns a freshly stored run's analysis into the
// per-site delta event. The analysis is already in hand (the store
// returns it from ingest), so publishing costs one JSON encode.
func (s *Server) publishRunIngested(tn *tenant, res *store.IngestResult) {
	if res.Meta == nil || res.Report == nil {
		return
	}
	ev := RunEvent{
		Tenant:    tn.name,
		Run:       res.Meta.ID,
		Workload:  res.Meta.Name,
		Salvaged:  res.Meta.Salvaged,
		Bytes:     res.Meta.Bytes,
		TotalDrag: res.Report.TotalDrag,
	}
	for _, g := range res.Report.ByNestedSite {
		ev.Sites = append(ev.Sites, SiteDeltaSSE{
			Site:      g.Desc,
			Drag:      g.Drag,
			InUse:     g.InUse,
			Bytes:     g.Bytes,
			Objects:   g.Count,
			NeverUsed: g.NeverUsed,
		})
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	tn.events.Publish("run-ingested", data)
}

// publishCompacted announces a completed background merge.
func (s *Server) publishCompacted(tn *tenant, rs store.RunStore) {
	data, err := json.Marshal(CompactEvent{Tenant: tn.name, Runs: rs.NumRuns(), Bytes: rs.TotalBytes()})
	if err != nil {
		return
	}
	tn.events.Publish("compacted", data)
}

// handleWatch is the live stream: Server-Sent Events carrying per-site
// drag deltas as runs are ingested ("run-ingested") and summaries merge
// ("compacted"). Keep-alive comments flow every HeartbeatInterval; a
// client that reconnects with Last-Event-ID either replays the missed
// suffix from the broadcaster's ring or receives a "reset" event telling
// it to re-sync from /sites. Slow consumers are never allowed to
// back-pressure ingest: overflowing events are dropped and surfaced as a
// "gap" event with the drop count. The stream ends (cleanly, after a
// final comment) when the server drains.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantOf(r)
	if tn.store() == nil {
		s.metrics.notReady.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusServiceUnavailable, IngestResponse{Error: "store is recovering"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var lastID uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad Last-Event-ID", http.StatusBadRequest)
			return
		}
		lastID = n
	}

	sub, replay, resumed := tn.events.Subscribe(lastID)
	defer sub.Close()
	s.metrics.watchConnects.Add(1)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": dragserved watch, tenant %s\n\n", tn.name)
	if !resumed {
		writeSSE(w, events.Event{ID: tn.events.LastID(), Type: "reset",
			Data: mustJSON(ResetEvent{Reason: "resume window expired; re-sync from /sites"})})
	}
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	flusher.Flush()

	heartbeat := time.NewTicker(s.heartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			flusher.Flush()
		case ev, ok := <-sub.Events():
			if !ok {
				// Drain: the broadcaster closed after the last ingest's
				// events were delivered.
				fmt.Fprint(w, ": stream closing (server drain)\n\n")
				flusher.Flush()
				return
			}
			if n := sub.TakeDropped(); n > 0 {
				s.metrics.watchDropped.Add(n)
				writeSSE(w, events.Event{Type: "gap", Data: mustJSON(GapEvent{Dropped: n})})
			}
			writeSSE(w, ev)
			flusher.Flush()
		}
	}
}

// writeSSE renders one event in SSE wire format. Events without an id
// (gap notices) omit the id line so they never disturb the client's
// resume position.
func writeSSE(w http.ResponseWriter, ev events.Event) {
	if ev.ID > 0 {
		fmt.Fprintf(w, "id: %d\n", ev.ID)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data)
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte("{}")
	}
	return data
}
