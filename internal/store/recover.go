// Recovery: the scan Open runs before the store serves anything. The
// durable commit protocol (see commit) guarantees that a crash at any
// point leaves each run either fully present (log + meta, with the meta
// written last) or detectably partial. The scan verifies every run against
// the store's own integrity oracle — the run id is the SHA-256 of the log
// bytes — and moves anything torn, orphaned or filed off its home shard
// into quarantine/ with a machine-readable reason, instead of failing Open
// or silently serving damaged data. It reads only the layout the store
// writes.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dragprof/internal/profile"
)

// QuarantineReason is the JSON record written next to every quarantined
// file: what was moved, why, and which run it belonged to. Every shard's
// recovery scan quarantines into the store's one quarantine/ directory.
type QuarantineReason struct {
	// File is the quarantined file's original path, relative to the
	// store root.
	File string `json:"file"`
	// Reason describes the damage in one sentence.
	Reason string `json:"reason"`
	// RunID is the run the file claimed to belong to, when known.
	RunID string `json:"runId,omitempty"`
	// QuarantinedUnix is the wall-clock quarantine time (seconds).
	QuarantinedUnix int64 `json:"quarantinedUnix"`
}

// Quarantined lists every quarantine record found or created by this
// store's recovery scans, sorted by file name then run id — a stable order
// independent of the shard count and of scan order.
func (s *Store) Quarantined() []QuarantineReason {
	s.mu.Lock()
	out := make([]QuarantineReason, len(s.quarantined))
	copy(out, s.quarantined)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].RunID != out[j].RunID {
			return out[i].RunID < out[j].RunID
		}
		return out[i].Reason < out[j].Reason
	})
	return out
}

// QuarantineDir returns the directory torn entries are moved into.
func (s *Store) QuarantineDir() string { return filepath.Join(s.root, "quarantine") }

// recoverLocked runs the full recovery scan. It owns the store
// exclusively (Open calls it before the store is published).
func (s *Store) recoverLocked() error {
	// Load prior quarantine records so Quarantined() reflects the whole
	// history, not just this scan.
	if err := s.loadQuarantineLocked(); err != nil {
		return err
	}
	// Stale spool files from a crashed ingest are garbage: nothing in
	// tmp/ was ever acknowledged.
	if ents, err := os.ReadDir(filepath.Join(s.root, "tmp")); err == nil {
		for _, e := range ents {
			s.fs.Remove(filepath.Join(s.root, "tmp", e.Name()))
		}
	}
	for i, sh := range s.shards {
		if err := s.scanShardLocked(i, sh); err != nil {
			return err
		}
	}
	return s.loadCompactedLocked()
}

// scanShardLocked rebuilds shard i's run set from its runs/ directory,
// verifying every entry, counting it into the store's totals and
// quarantining damage. A run whose id routes to another shard is
// quarantined too: Get looks for a run only on its home shard, so such a
// run could never be served.
func (s *Store) scanShardLocked(i int, sh *shard) error {
	runsDir := sh.runsDir()
	ents, err := os.ReadDir(runsDir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	moved := false
	for _, name := range names {
		path := filepath.Join(runsDir, name)
		// Leftover atomic-write temps never carried an acknowledgement;
		// remove them outright.
		if strings.HasPrefix(name, ".tmp-") {
			s.fs.Remove(path)
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue // a .log is handled via its .json below
		}
		id := strings.TrimSuffix(name, ".json")
		var m *RunMeta
		var reason string
		if home := shardOf(id, len(s.shards)); home != i {
			reason = fmt.Sprintf("run filed off its home shard %03d", home)
		} else {
			m, reason = s.verifyRun(runsDir, id)
		}
		if reason != "" {
			if err := s.quarantineRunLocked(runsDir, id, reason); err != nil {
				return err
			}
			moved = true
			continue
		}
		sh.runs[m.ID] = m
		s.addLocked(m)
	}
	// Orphaned artifacts: a .log without committed metadata is an
	// interrupted, never-acknowledged commit.
	for _, name := range names {
		if !strings.HasSuffix(name, ".log") {
			continue
		}
		id := strings.TrimSuffix(name, ".log")
		if _, ok := sh.runs[id]; ok {
			continue
		}
		if _, err := os.Stat(filepath.Join(runsDir, name)); err != nil {
			continue // already quarantined alongside its metadata
		}
		if err := s.quarantineFileLocked(runsDir, name, id,
			"uncommitted run artifact: no valid metadata record (interrupted commit)"); err != nil {
			return err
		}
		moved = true
	}
	if moved {
		if err := s.fs.SyncDir(runsDir); err != nil {
			return err
		}
		if err := s.fs.SyncDir(s.QuarantineDir()); err != nil {
			return err
		}
	}
	return nil
}

// verifyRun checks one run's on-disk artifacts. It returns the parsed
// metadata when the run is intact ("" reason), or a quarantine reason.
func (s *Store) verifyRun(runsDir, id string) (*RunMeta, string) {
	data, err := os.ReadFile(filepath.Join(runsDir, id+".json"))
	if err != nil {
		return nil, fmt.Sprintf("unreadable run metadata: %v", err)
	}
	var m RunMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Sprintf("torn run metadata: %v", err)
	}
	if m.ID != id {
		return nil, fmt.Sprintf("metadata id %q does not match file name", m.ID)
	}
	f, err := os.Open(filepath.Join(runsDir, id+".log"))
	if err != nil {
		return nil, fmt.Sprintf("run log missing or unreadable: %v", err)
	}
	hash := sha256.New()
	head := make([]byte, profile.HeaderBytes)
	h, _ := io.ReadFull(f, head) // a shorter log keeps what it has; the hash judges it
	hash.Write(head[:h])
	n, err := io.Copy(hash, f)
	n += int64(h)
	f.Close()
	if err != nil {
		return nil, fmt.Sprintf("run log unreadable: %v", err)
	}
	if got := hex.EncodeToString(hash.Sum(nil)); got != id {
		return nil, fmt.Sprintf("torn run log: %d bytes hash to %s, not the run id", n, got[:12])
	}
	// An intact log this build's reader cannot parse (one written in an
	// older format version, or a text log) would fail every merge of its
	// workload.
	if err := profile.CheckHeader(head[:h]); err != nil {
		return nil, fmt.Sprintf("run log format not readable: %v", err)
	}
	return &m, ""
}

// quarantineRunLocked moves every artifact of a damaged run into
// quarantine/.
func (s *Store) quarantineRunLocked(runsDir, id, reason string) error {
	for _, ext := range []string{".json", ".log"} {
		name := id + ext
		if _, err := os.Stat(filepath.Join(runsDir, name)); err != nil {
			continue
		}
		if err := s.quarantineFileLocked(runsDir, name, id, reason); err != nil {
			return err
		}
	}
	return nil
}

// quarantineFileLocked moves one file into quarantine/ and writes its
// reason record durably next to it.
func (s *Store) quarantineFileLocked(dir, name, runID, reason string) error {
	qdir := s.QuarantineDir()
	dest := filepath.Join(qdir, name)
	for i := 1; ; i++ {
		if _, err := os.Stat(dest); err != nil {
			break
		}
		dest = filepath.Join(qdir, fmt.Sprintf("%s.%d", name, i))
	}
	if err := s.fs.Rename(filepath.Join(dir, name), dest); err != nil {
		return fmt.Errorf("store: quarantining %s: %w", name, err)
	}
	rel, err := filepath.Rel(s.root, filepath.Join(dir, name))
	if err != nil {
		rel = name
	}
	q := QuarantineReason{
		File:            rel,
		Reason:          reason,
		RunID:           runID,
		QuarantinedUnix: time.Now().Unix(),
	}
	blob, err := json.MarshalIndent(q, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeFileDurable(s.fs, qdir, dest+".reason.json", append(blob, '\n')); err != nil {
		return err
	}
	s.quarantined = append(s.quarantined, q)
	return nil
}

// loadQuarantineLocked reads the reason records of previous scans from
// quarantine/.
func (s *Store) loadQuarantineLocked() error {
	dir := s.QuarantineDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".reason.json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		var q QuarantineReason
		if err := json.Unmarshal(data, &q); err != nil {
			continue // a torn reason file never blocks recovery
		}
		s.quarantined = append(s.quarantined, q)
	}
	return nil
}
