// A shard is one durable run log: shards/NNN/runs/ holds the committed
// runs whose id routes to it (shardOf), written by the commit protocol
// below and verified by the recovery scan (recover.go). A shard keeps no
// summaries and runs no compaction; the Store that owns it folds runs
// across every shard.
package store

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// shard is one run log directory and the runs committed to it.
type shard struct {
	dir string
	fs  FS

	mu   sync.Mutex
	runs map[string]*RunMeta
}

// shardOf maps a run id (lowercase hex SHA-256) onto its home shard. Ids
// that are not hex are never produced by the store; they route to shard 0.
func shardOf(id string, n int) int {
	if len(id) < 8 {
		return 0
	}
	v, err := strconv.ParseUint(id[:8], 16, 64)
	if err != nil {
		return 0
	}
	return int(v % uint64(n))
}

func (sh *shard) runsDir() string { return filepath.Join(sh.dir, "runs") }

// path names one artifact (".log" or ".json") of a run.
func (sh *shard) path(id, ext string) string { return filepath.Join(sh.dir, "runs", id+ext) }

// Get returns the metadata of a run stored on this shard, by full id.
func (sh *shard) Get(id string) (*RunMeta, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.runs[id]
	return m, ok
}

// Runs lists the shard's runs sorted by id.
func (sh *shard) Runs() []*RunMeta {
	sh.mu.Lock()
	out := make([]*RunMeta, 0, len(sh.runs))
	for _, m := range sh.runs {
		out = append(out, m)
	}
	sh.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// commit runs the durable commit protocol: rename the fsynced spool into
// runs/, fsync the directory, then durably write the metadata record —
// the commit point — and fsync the directory again. Recovery treats a run as committed if and only if its
// metadata parses and the log hashes to the run id, so a crash anywhere
// before the final SyncDir leaves at worst unacknowledged debris that the
// recovery scan quarantines or reaps. Duplicate ids are detected under
// the lock; the first writer wins and later identical uploads are
// reported as duplicates.
func (sh *shard) commit(meta *RunMeta, spoolPath string) (duplicate bool, err error) {
	if existing, ok := sh.Get(meta.ID); ok {
		*meta = *existing
		return true, nil
	}

	runsDir := sh.runsDir()
	logPath, metaPath := sh.path(meta.ID, ".log"), sh.path(meta.ID, ".json")
	committed := false
	defer func() {
		if committed {
			return
		}
		// A half-committed run must not linger in runs/ until the next
		// recovery scan: reap every artifact this attempt created.
		sh.fs.Remove(spoolPath)
		sh.fs.Remove(logPath)
		sh.fs.Remove(metaPath)
	}()

	if err := sh.fs.Rename(spoolPath, logPath); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if err := sh.fs.SyncDir(runsDir); err != nil {
		return false, err
	}
	mj, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	// The metadata record is the commit point: once it is durable, the
	// run exists; until then, recovery sees only uncommitted artifacts.
	if err := writeFileDurable(sh.fs, runsDir, metaPath, append(mj, '\n')); err != nil {
		return false, err
	}
	if err := sh.fs.SyncDir(runsDir); err != nil {
		return false, err
	}
	committed = true

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if existing, ok := sh.runs[meta.ID]; ok {
		// A concurrent identical upload won the race; the files we wrote
		// are byte-identical, so adopting the existing meta is safe.
		*meta = *existing
		return true, nil
	}
	sh.runs[meta.ID] = meta
	return false, nil
}
