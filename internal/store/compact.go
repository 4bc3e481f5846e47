package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dragprof/internal/drag"
	"dragprof/internal/profile"
)

// SiteSummary is one allocation site's merged totals across every stored
// run of a workload — the mergeable unit the compactor maintains.
type SiteSummary struct {
	// Name is the workload the summary belongs to.
	Name string `json:"name"`
	// Desc is the nested allocation-site description (the merge key).
	Desc string `json:"site"`
	// Runs counts the runs merged into this summary.
	Runs int `json:"runs"`
	// Count/NeverUsed/Bytes are summed object counts and sizes.
	Count     int   `json:"objects"`
	NeverUsed int   `json:"neverUsed"`
	Bytes     int64 `json:"bytes"`
	// Drag and InUse are the summed byte·alloc integrals.
	Drag  int64 `json:"dragByte2"`
	InUse int64 `json:"inUseByte2"`
	// Pattern is the use-pattern classification of the merged group.
	Pattern string `json:"pattern"`
}

// workloadSummary is the on-disk compaction artifact for one workload.
type workloadSummary struct {
	// Name is the workload.
	Name string `json:"name"`
	// Runs lists the run ids merged, sorted — the deterministic merge
	// order, and the staleness check against the live run set.
	Runs []string `json:"runs"`
	// TotalDrag is the merged report's drag integral.
	TotalDrag int64 `json:"totalDrag"`
	// Sites are the merged per-site summaries, ordered by drag descending
	// (the merged report's ByNestedSite order).
	Sites []*SiteSummary `json:"sites"`
}

// compactKey keeps file names safe regardless of workload-name contents.
func compactKey(name string) string {
	return fmt.Sprintf("%x", []byte(name))
}

// loadCompactedLocked requires exclusive access to s (Open calls it before
// the store is published; no other caller exists). A torn summary is
// quarantined, never fatal: the compactor regenerates it from the runs.
func (s *Store) loadCompactedLocked() error {
	dir := filepath.Join(s.root, "compact")
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	moved := false
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, ".tmp-") {
			// Leftover atomic-swap temp from an interrupted compaction.
			s.fs.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".reason.json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		var ws workloadSummary
		if err := json.Unmarshal(data, &ws); err != nil {
			if qerr := s.quarantineFileLocked(dir, name, "",
				fmt.Sprintf("torn compaction summary: %v", err)); qerr != nil {
				return qerr
			}
			moved = true
			continue
		}
		s.compacted[ws.Name] = &ws
	}
	if moved {
		if err := s.fs.SyncDir(dir); err != nil {
			return err
		}
		if err := s.fs.SyncDir(s.QuarantineDir()); err != nil {
			return err
		}
	}
	return nil
}

// Dirty reports whether any workload's compacted summary is stale.
func (s *Store) Dirty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.dirty) > 0
}

// Compact rebuilds the per-site summaries of every workload whose run set
// changed since the last compaction. Each stale workload is folded once,
// over all shards, through mergeWorkload in sorted run-id order, so the
// result is independent of ingest order, of the shard count and of which
// server performed the merge. Compaction is single-flight: a call that
// starts while another runs waits for it, then merges only what is still
// dirty. workers is accepted for the RunStore contract and ignored: each
// run folds on one worker, because compaction runs in the background on
// the CPUs ingest folds on, and a wider pool would hold every block's
// accumulator until the final merge.
func (s *Store) Compact(workers int) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	stale := make([]string, 0, len(s.dirty))
	for name := range s.dirty {
		stale = append(stale, name)
	}
	s.mu.Unlock()
	sort.Strings(stale)

	compactDir := filepath.Join(s.root, "compact")
	for _, name := range stale {
		ws, err := s.mergeWorkload(name, s.runIDs(name))
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(ws, "", "  ")
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		// Compaction swap: write-new → fsync → atomic rename → fsync dir.
		// A crash leaves either the old or the new generation — the rename
		// is the only visible transition.
		if err := writeFileDurable(s.fs, compactDir, filepath.Join(compactDir, compactKey(name)+".json"), append(data, '\n')); err != nil {
			return err
		}
		if err := s.fs.SyncDir(compactDir); err != nil {
			return err
		}
		// An ingest publishes its run on its shard before it marks the
		// workload dirty under s.mu, so a run set read under s.mu holds
		// every run whose dirty mark this clear could erase; a run the
		// merge missed keeps the flag set.
		s.mu.Lock()
		s.compacted[name] = ws
		if sameRunSet(ws.Runs, s.runIDs(name)) {
			delete(s.dirty, name)
		}
		s.mu.Unlock()
	}
	return nil
}

// mergeWorkload merges one workload's runs into a single summary. Each
// run's stored log streams through drag.FoldLog on one worker (Compact
// says why), and the per-run accumulators merge in sorted-id order, which
// makes the fold deterministic.
func (s *Store) mergeWorkload(name string, ids []string) (*workloadSummary, error) {
	var (
		acc  *drag.Accumulator
		base *profile.Profile
	)
	for _, id := range ids {
		f, err := os.Open(s.home(id).path(id, ".log"))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		var runAcc *drag.Accumulator
		stream, err := profile.OpenLogStream(f)
		if err == nil {
			runAcc, err = drag.FoldLog(stream, drag.Options{}, 1)
		}
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("store: compacting run %s: %w", id, err)
		}
		p := stream.Profile()
		if acc == nil {
			base, acc = p, runAcc
			continue
		}
		if err := drag.CheckMergeable(base, p); err != nil {
			return nil, fmt.Errorf("store: run %s: %w", id, err)
		}
		acc.Merge(runAcc)
	}
	ws := &workloadSummary{Name: name, Runs: ids}
	if acc == nil {
		return ws, nil
	}
	rep := acc.Report()
	ws.TotalDrag = rep.TotalDrag
	ws.Sites = SummarizeSites(name, len(ids), rep)
	return ws, nil
}

// SummarizeSites renders a report's nested-site groups, in the report's
// drag order, as the summaries /sites serves for a workload merged from
// runs runs.
func SummarizeSites(name string, runs int, rep *drag.Report) []*SiteSummary {
	var out []*SiteSummary
	for _, g := range rep.ByNestedSite {
		out = append(out, &SiteSummary{
			Name:      name,
			Desc:      g.Desc,
			Runs:      runs,
			Count:     g.Count,
			NeverUsed: g.NeverUsed,
			Bytes:     g.Bytes,
			Drag:      g.Drag,
			InUse:     g.InUse,
			Pattern:   g.Pattern.String(),
		})
	}
	return out
}

// SiteSummaries returns the compacted cross-run site summaries for every
// workload, compacting first if anything is stale. The result is sorted by
// drag descending, then name/site ascending for ties.
func (s *Store) SiteSummaries(workers int) ([]*SiteSummary, error) {
	if s.Dirty() {
		if err := s.Compact(workers); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	var out []*SiteSummary
	for _, ws := range s.compacted {
		out = append(out, ws.Sites...)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Drag != out[j].Drag {
			return out[i].Drag > out[j].Drag
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Desc < out[j].Desc
	})
	return out, nil
}
