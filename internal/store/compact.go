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
	// Desc is the nested allocation-site description.
	Desc string `json:"site"`
	// Key is the site's canonical chain-suffix key, the merge key. Two
	// keys can render one description, so it breaks the last tie of the
	// /sites order; it is not served.
	Key string `json:"-"`
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

// summaryVersion marks a compaction summary that carries drag-time
// moments. A summary without it was written before summaries became
// additive: it is stale, and the next compaction rebuilds it from the
// logs.
const summaryVersion = 2

// workloadSummary is the on-disk compaction artifact for one workload:
// the sum of its runs' drag.Summary values.
type workloadSummary struct {
	Version int `json:"version"`
	// Name is the workload.
	Name string `json:"name"`
	// Runs lists the run ids merged, sorted — the staleness check against
	// the live run set. Window is the never-used window of Runs[0], whose
	// options the merge classifies under.
	Runs []string `json:"runs"`
	drag.Summary
	// rows are the /sites rows rendered from the summary.
	rows []*SiteSummary
}

// additive reports whether the summary can take further runs by addition.
func (ws *workloadSummary) additive() bool {
	return ws.Version == summaryVersion && len(ws.Runs) > 0
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
		ws.render()
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

// CompactionLogsRead counts the run logs compaction has folded since the
// store was opened. A run ingested by this process is added from the
// summary ingest kept, so it is read only after a restart or when its
// workload is rebuilt.
func (s *Store) CompactionLogsRead() int64 { return s.logsRead.Load() }

// Compact brings the summary of every workload whose run set changed
// since the last compaction up to date. Summaries add (drag.Summary.Add),
// so the new summary is the stored one plus the runs it lacks, and the
// result does not depend on ingest order, on the shard count or on which
// server performed the merge. Compaction is single-flight: a call that
// starts while another runs waits for it, then merges only what is still
// dirty. workers is accepted for the RunStore contract and ignored: a run
// whose log must be read folds on one worker, because compaction runs in
// the background on the CPUs ingest folds on.
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
		s.mu.Lock()
		ids := s.runIDs(name)
		old := s.compacted[name]
		kept := make(map[string]*drag.Summary, len(s.runSums[name]))
		for id, sum := range s.runSums[name] {
			kept[id] = sum
		}
		s.mu.Unlock()
		ws, err := s.mergeWorkload(name, ids, old, kept)
		if err != nil {
			return err
		}
		data, err := json.Marshal(ws)
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
		for _, id := range ws.Runs {
			delete(s.runSums[name], id)
		}
		if len(s.runSums[name]) == 0 {
			delete(s.runSums, name)
		}
		if sameRunSet(ws.Runs, s.runIDs(name)) {
			delete(s.dirty, name)
		}
		s.mu.Unlock()
	}
	return nil
}

// mergeWorkload returns the summary of one workload's runs ids. When old
// has moments and every run it covers is still stored, the result is old
// plus the runs old lacks; otherwise it is rebuilt from every run. A run's
// summary comes from kept, the summaries ingest kept in memory, and only
// a run missing there has its log folded (foldRun). Summaries add in any
// order to the same integers, and the never-used window is always that of
// the smallest run id, so appending and rebuilding write identical bytes.
func (s *Store) mergeWorkload(name string, ids []string, old *workloadSummary, kept map[string]*drag.Summary) (*workloadSummary, error) {
	ws := &workloadSummary{Version: summaryVersion, Name: name, Runs: ids}
	have := map[string]bool{}
	if old != nil && old.additive() && coversAll(ids, old.Runs) {
		ws.Summary = old.Summary
		for _, id := range old.Runs {
			have[id] = true
		}
	}
	for _, id := range ids {
		if have[id] {
			continue
		}
		run := kept[id]
		if run == nil {
			var err error
			if run, err = s.foldRun(id); err != nil {
				return nil, err
			}
		}
		if len(have) == 0 {
			ws.Summary = *run
		} else if err := drag.CheckShapes(ws.Shape, run.Shape); err != nil {
			return nil, fmt.Errorf("store: run %s: %w", id, err)
		} else {
			ws.Add(run)
			if id == ids[0] {
				ws.Window = run.Window
			}
		}
		have[id] = true
	}
	ws.render()
	return ws, nil
}

// foldRun streams a stored run's log through drag.FoldLog on one worker
// (Compact says why) and returns the run's summary.
func (s *Store) foldRun(id string) (*drag.Summary, error) {
	s.logsRead.Add(1)
	f, err := os.Open(s.home(id).path(id, ".log"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var acc *drag.Accumulator
	stream, err := profile.OpenLogStream(f)
	if err == nil {
		acc, err = drag.FoldLog(stream, drag.Options{}, 1)
	}
	if err != nil {
		return nil, fmt.Errorf("store: compacting run %s: %w", id, err)
	}
	return acc.Report().Summary(), nil
}

// coversAll reports whether every id of sub (sorted) is in ids (sorted).
func coversAll(ids, sub []string) bool {
	i := 0
	for _, id := range sub {
		for i < len(ids) && ids[i] < id {
			i++
		}
		if i == len(ids) || ids[i] != id {
			return false
		}
	}
	return true
}

// render fills ws.rows from the summary.
func (ws *workloadSummary) render() {
	ws.rows = siteRows(ws.Name, len(ws.Runs), &ws.Summary)
}

// siteRows renders a summary's groups as the summaries /sites serves for
// a workload merged from runs runs, in the /sites order.
func siteRows(name string, runs int, sum *drag.Summary) []*SiteSummary {
	out := make([]*SiteSummary, 0, len(sum.Groups))
	for i := range sum.Groups {
		g := &sum.Groups[i]
		out = append(out, &SiteSummary{
			Name:      name,
			Desc:      g.Desc,
			Key:       g.Key,
			Runs:      runs,
			Count:     g.Count,
			NeverUsed: g.NeverUsed,
			Bytes:     g.Bytes,
			Drag:      g.Drag,
			InUse:     g.InUse,
			Pattern:   g.Pattern(sum.Window).String(),
		})
	}
	SortSites(out, func(s *SiteSummary) int64 { return s.Drag })
	return out
}

// SummarizeSites renders one report's nested-site groups as the summaries
// /sites serves for a workload merged from runs runs, through the
// additive summary the store merges.
func SummarizeSites(name string, runs int, rep *drag.Report) []*SiteSummary {
	return siteRows(name, runs, rep.Summary())
}

// SortSites orders site summaries by metric descending; ties break by
// workload name, then site, then chain key, so the order is total.
func SortSites(sums []*SiteSummary, metric func(*SiteSummary) int64) {
	sort.Slice(sums, func(i, j int) bool {
		a, b := sums[i], sums[j]
		if m, n := metric(a), metric(b); m != n {
			return m > n
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Desc != b.Desc {
			return a.Desc < b.Desc
		}
		return a.Key < b.Key
	})
}

// SiteSummaries returns the compacted cross-run site summaries for every
// workload, compacting first if anything is stale. The result is sorted by
// drag descending, then name, site and chain key ascending for ties.
func (s *Store) SiteSummaries(workers int) ([]*SiteSummary, error) {
	if s.Dirty() {
		if err := s.Compact(workers); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	var out []*SiteSummary
	for _, ws := range s.compacted {
		out = append(out, ws.rows...)
	}
	s.mu.Unlock()
	SortSites(out, func(s *SiteSummary) int64 { return s.Drag })
	return out, nil
}
