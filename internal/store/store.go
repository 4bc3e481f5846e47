// Package store is dragserved's persistent run store: a content-addressed
// on-disk collection of drag logs, per-run analysis reports computed from
// them on request, and a cross-run compactor that merges runs of the same
// workload into mergeable per-site summaries.
//
// One Store owns N >= 1 shards. Runs are partitioned by their id across
// the shards; each shard is a durable run log (shard.go). The Store alone
// owns the per-workload summaries, their staleness set and the running
// totals, so every query answer is a function of the stored run set only,
// byte-identical for every shard count. Layout under the root directory:
//
//	sharding.json           {"version":1,"shards":N}, fixed at creation
//	tmp/                    ingest spool files (removed on open)
//	shards/NNN/runs/<id>.log
//	                        the stored drag log (raw upload bytes for clean
//	                        ingests; the re-encoded salvaged prefix for
//	                        damaged ones)
//	shards/NNN/runs/<id>.json
//	                        RunMeta — the commit record, written last
//	compact/<key>.json      per-workload compacted site summaries
//	quarantine/             torn entries moved aside by the recovery scan,
//	                        each with a <file>.reason.json record
//
// A committed run is exactly its .log and its .json. Every report on it,
// the canonical dump included, is a deterministic function of the log
// (Report), so the store keeps no derived copy.
//
// A run's id is the lowercase hex SHA-256 of the stored log bytes, so
// identical uploads deduplicate and the id doubles as an integrity oracle:
// anyone holding the log can recompute the id offline. The id also picks
// the run's home shard (shardOf).
//
// Durability contract: by the time Ingest returns a non-duplicate result,
// the run's log and metadata are fsynced and their directory entries are
// durable — a power cut cannot lose or tear an acknowledged run. Each
// ingest makes two durable writes: the spool, renamed into place as the
// log, and the metadata record, the commit point. All mutations flow through the FS seam (fsys.go) so
// the chaos harness can prove it by crashing at every step; Open's
// recovery scan (recover.go) verifies every run against its content hash
// and quarantines anything torn instead of failing or serving it.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dragprof/internal/drag"
	"dragprof/internal/profile"
)

// ErrTooLarge is returned (wrapped) by the reader built with LimitReader
// once an upload exceeds the configured byte limit; Ingest rejects the
// upload without storing a salvaged prefix.
var ErrTooLarge = errors.New("store: upload exceeds size limit")

// LimitReader wraps an upload body so reads past limit bytes fail with
// ErrTooLarge (distinguishable from genuine truncation, which salvages).
func LimitReader(r io.Reader, limit int64) io.Reader {
	return &limitReader{r: r, left: limit}
}

type limitReader struct {
	r    io.Reader
	left int64
}

func (l *limitReader) Read(p []byte) (int, error) {
	if l.left <= 0 {
		return 0, ErrTooLarge
	}
	if int64(len(p)) > l.left {
		p = p[:l.left]
	}
	n, err := l.r.Read(p)
	l.left -= int64(n)
	return n, err
}

// RunMeta describes one stored run.
type RunMeta struct {
	// ID is the SHA-256 of the stored log bytes, lowercase hex.
	ID string `json:"id"`
	// Name is the workload name the log declares.
	Name string `json:"name"`
	// Format and Compressed describe the *uploaded* log ("binary" or
	// "text"); a salvaged run is always re-stored as uncompressed binary.
	Format     string `json:"format"`
	Compressed bool   `json:"compressed"`
	// Records and Blocks count the stored trailer records and blocks.
	Records int `json:"records"`
	Blocks  int `json:"blocks"`
	// Bytes is the stored log size.
	Bytes int64 `json:"bytes"`
	// FinalClock is the run's allocation clock at exit.
	FinalClock int64 `json:"finalClock"`
	// Salvaged marks a run stored from the intact prefix of a damaged
	// upload; Salvage describes the fault.
	Salvaged bool                   `json:"salvaged"`
	Salvage  *profile.SalvageReport `json:"salvage,omitempty"`
	// ReceivedUnix is the ingest wall-clock time (seconds). Informational
	// only: no query result depends on it.
	ReceivedUnix int64 `json:"receivedUnix"`
}

// IngestResult is the outcome of one upload.
type IngestResult struct {
	// Meta is the stored run, nil when nothing was storable (damaged
	// header/tables, zero salvageable records, or an oversized upload).
	Meta *RunMeta
	// Report is the run's analysis under default options, computed
	// while the upload streamed in (nil for duplicates, which were
	// already announced when first stored).
	Report *drag.Report
	// Salvage is non-nil exactly when the upload was damaged; the upload
	// was rejected (HTTP 422) even if a prefix was stored.
	Salvage *profile.SalvageReport
	// Duplicate marks an id that was already present.
	Duplicate bool
	// TooLarge marks an upload rejected for exceeding the size limit.
	TooLarge bool
}

// Clean reports a fully-intact ingest.
func (r *IngestResult) Clean() bool { return r.Salvage == nil && !r.TooLarge }

// RunStore is the query-and-ingest surface a dragserved instance needs
// from a run store. *Store is its one implementation; the server is
// written against the interface so that a wrapper around a Store, such as
// the benchmark's compaction-counting store, can stand in for it. The
// contract: answers are deterministic functions of the stored run set, and
// all methods are safe for concurrent use.
type RunStore interface {
	// Root returns the store's root directory.
	Root() string
	// Runs lists the stored runs sorted by id.
	Runs() []*RunMeta
	// Get resolves a run id or unique >=8-hex-digit prefix.
	Get(id string) (*RunMeta, bool)
	// NumRuns, TotalBytes and SalvagedRuns are the readiness stats.
	NumRuns() int
	TotalBytes() int64
	SalvagedRuns() int
	// OpenLog opens a stored run's log for reading.
	OpenLog(id string) (io.ReadCloser, error)
	// Report recomputes a run's analysis from its stored log; its
	// CanonicalDump under default options is the served canonical report.
	Report(id string, opts drag.Options, workers int) (*drag.Report, error)
	// Ingest stores one uploaded drag log.
	Ingest(body io.Reader, workers int) (*IngestResult, error)
	// Compact rebuilds stale cross-run summaries; Dirty reports staleness.
	Compact(workers int) error
	Dirty() bool
	// SiteSummaries returns the compacted cross-run site summaries.
	SiteSummaries(workers int) ([]*SiteSummary, error)
	// Quarantined lists what recovery scans moved aside, sorted by file.
	Quarantined() []QuarantineReason
}

// Store is the on-disk run store. All methods are safe for concurrent use.
type Store struct {
	root   string
	fs     FS
	shards []*shard

	// compactMu makes compaction single-flight: a Compact that starts
	// while another runs waits for it, then merges only what is still
	// dirty.
	compactMu sync.Mutex

	mu sync.Mutex
	// numRuns, bytes and salvaged are running totals over every shard,
	// updated at commit.
	numRuns  int
	bytes    int64
	salvaged int
	// dirty marks workload names whose compacted summaries are stale.
	dirty map[string]bool
	// compacted holds the per-workload summaries, keyed by workload name.
	compacted map[string]*workloadSummary
	// quarantined records what the recovery scan moved aside.
	quarantined []QuarantineReason
}

// Sharded is an alias of Store for callers that name the store by its
// shards; every Store has N >= 1 of them.
type Sharded = Store

var _ RunStore = (*Store)(nil)

// shardConfig is the persisted shard map. The shard count is fixed at
// store creation; reopening with a different requested count honors the
// on-disk value.
type shardConfig struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// Open creates (if needed) and loads a store rooted at dir, with one
// shard unless dir already fixes the count.
func Open(dir string) (*Store, error) { return OpenShardedFS(dir, 1, OSFS{}) }

// OpenFS is Open behind the filesystem seam.
func OpenFS(dir string, fsys FS) (*Store, error) { return OpenShardedFS(dir, 1, fsys) }

// OpenSharded creates (if needed) and loads a store rooted at dir with n
// shards; an existing sharding.json fixes the count and n is ignored.
func OpenSharded(dir string, n int) (*Store, error) { return OpenShardedFS(dir, n, OSFS{}) }

// OpenShardedFS opens a store whose mutations run through fsys — the
// chaos harness's entry point; production callers use Open or
// OpenSharded. Opening runs the recovery scan: every stored run is
// verified against its content hash and torn or orphaned entries are
// quarantined, so Open succeeds on any directory state a crash can
// produce.
func OpenShardedFS(dir string, n int, fsys FS) (*Store, error) {
	if n < 1 {
		return nil, fmt.Errorf("store: shard count %d, want at least 1", n)
	}
	// The unsharded layout kept runs in a root runs/ directory. This
	// version reads only shards/, so refuse such a store rather than
	// silently stop serving its runs.
	if ents, err := os.ReadDir(filepath.Join(dir, "runs")); err == nil && len(ents) > 0 {
		return nil, fmt.Errorf("store: %s holds runs in the unsharded layout (runs/), which this version does not read", dir)
	}
	s := &Store{
		root:      dir,
		fs:        fsys,
		dirty:     make(map[string]bool),
		compacted: make(map[string]*workloadSummary),
	}
	for _, sub := range []string{"tmp", "compact", "quarantine", "shards"} {
		if err := fsys.MkdirAll(filepath.Join(dir, sub)); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	n, err := s.loadOrInitConfig(n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		sh := &shard{dir: filepath.Join(dir, "shards", fmt.Sprintf("%03d", i)), fs: fsys, runs: make(map[string]*RunMeta)}
		if err := fsys.MkdirAll(sh.runsDir()); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.shards = append(s.shards, sh)
	}
	if err := s.recoverLocked(); err != nil {
		return nil, err
	}
	// Any workload whose compacted summary is missing or no longer covers
	// its run set needs recompaction — including a workload whose runs
	// were all quarantined, whose old summary would otherwise go on
	// being served.
	names := make(map[string]bool)
	for _, sh := range s.shards {
		for _, m := range sh.runs {
			names[m.Name] = true
		}
	}
	for name := range s.compacted {
		names[name] = true
	}
	for name := range names {
		sum := s.compacted[name]
		if sum == nil || !sameRunSet(sum.Runs, s.runIDs(name)) {
			s.dirty[name] = true
		}
	}
	return s, nil
}

// loadOrInitConfig reads sharding.json, creating it durably on first open.
// A missing or torn config with shards already on disk is recovered by
// counting the shard directories (the layout itself is the source of
// truth).
func (s *Store) loadOrInitConfig(n int) (int, error) {
	path := filepath.Join(s.root, "sharding.json")
	data, err := os.ReadFile(path)
	if err == nil {
		var cfg shardConfig
		if jerr := json.Unmarshal(data, &cfg); jerr == nil && cfg.Shards > 0 {
			return cfg.Shards, nil
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("store: %w", err)
	}
	if existing := s.countShardDirs(); existing > 0 {
		n = existing
	}
	blob, err := json.MarshalIndent(shardConfig{Version: 1, Shards: n}, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := writeFileDurable(s.fs, s.root, path, append(blob, '\n')); err != nil {
		return 0, err
	}
	if err := s.fs.SyncDir(s.root); err != nil {
		return 0, err
	}
	return n, nil
}

func (s *Store) countShardDirs() int {
	ents, err := os.ReadDir(filepath.Join(s.root, "shards"))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if _, err := strconv.Atoi(e.Name()); err == nil && e.IsDir() {
			n++
		}
	}
	return n
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Shard exposes one shard's run log (tests, placement probes).
func (s *Store) Shard(i int) *shard { return s.shards[i] }

// home returns the shard a run id routes to.
func (s *Store) home(id string) *shard { return s.shards[shardOf(id, len(s.shards))] }

// Runs lists the stored runs sorted by id.
func (s *Store) Runs() []*RunMeta {
	var out []*RunMeta
	for _, sh := range s.shards {
		out = append(out, sh.Runs()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns a run's metadata. The id may be abbreviated to a unique
// prefix of at least 8 hex digits. shardOf reads only the first 8 digits,
// so a full id and every such prefix of it name the same home shard, the
// only one Get looks at.
func (s *Store) Get(id string) (*RunMeta, bool) {
	sh := s.home(id)
	if m, ok := sh.Get(id); ok {
		return m, true
	}
	if len(id) < 8 || len(id) >= 2*sha256.Size {
		return nil, false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var found *RunMeta
	for rid, m := range sh.runs {
		if strings.HasPrefix(rid, id) {
			if found != nil {
				return nil, false // ambiguous
			}
			found = m
		}
	}
	return found, found != nil
}

// TotalBytes is the summed size of all stored logs.
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// NumRuns is the stored-run count.
func (s *Store) NumRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.numRuns
}

// SalvagedRuns counts stored runs that came from damaged uploads.
func (s *Store) SalvagedRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.salvaged
}

// addLocked counts a newly stored run into the running totals.
func (s *Store) addLocked(m *RunMeta) {
	s.numRuns++
	s.bytes += m.Bytes
	if m.Salvaged {
		s.salvaged++
	}
}

// OpenLog opens a stored run's log for reading.
func (s *Store) OpenLog(id string) (io.ReadCloser, error) {
	m, ok := s.Get(id)
	if !ok {
		return nil, fmt.Errorf("store: unknown run %q", id)
	}
	return os.Open(s.home(m.ID).path(m.ID, ".log"))
}

// Report recomputes a run's analysis from its stored log. workers <= 0
// uses GOMAXPROCS; the result is byte-identical to the serial analyzer.
func (s *Store) Report(id string, opts drag.Options, workers int) (*drag.Report, error) {
	f, err := s.OpenLog(id)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := drag.AnalyzeLog(f, opts, workers)
	if err != nil {
		return nil, fmt.Errorf("store: run %s: %w", id, err)
	}
	return rep, nil
}

// Ingest stores one uploaded drag log, streaming it block-by-block through
// profile.LogStream: blocks are decoded and aggregated on a workers-sized
// goroutine pool (mirroring drag.AnalyzeLog) while the raw bytes spool to
// disk under a running SHA-256. A damaged upload falls back to the salvage
// path: the intact prefix (exactly profile.SalvageLog's output) is
// re-encoded and stored, and the fault is described in Salvage — the
// caller rejects the upload, but the salvageable evidence is kept.
//
// A non-nil error reports an internal store fault (disk I/O); upload
// damage is never an error.
func (s *Store) Ingest(body io.Reader, workers int) (*IngestResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tmp, err := s.fs.CreateTemp(filepath.Join(s.root, "tmp"), "ingest-*.spool")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		tmp.Close()
		s.fs.Remove(tmpName) // no-op once renamed into place
	}()

	hash := sha256.New()
	size := &countWriter{}
	spool := &spoolWriter{f: tmp}
	tee := io.TeeReader(body, io.MultiWriter(spool, hash, size))

	rep, stream, streamErr := ingestStream(tee, workers)
	// Drain whatever the parser left unread so the spool and hash cover the
	// complete upload: the run id must be the digest of the bytes as sent,
	// and the salvage path must see exactly what a local SalvageLog over
	// the damaged file would.
	if _, derr := io.Copy(io.Discard, tee); derr != nil && streamErr == nil {
		streamErr = derr
	}
	if streamErr != nil {
		if spool.err != nil {
			// The disk, not the upload, failed — a server-side fault
			// (ENOSPC, EIO, ...) must surface as a typed internal error,
			// never blame the client with a salvage rejection.
			return nil, fmt.Errorf("store: spooling upload: %w", spool.err)
		}
		if errors.Is(streamErr, ErrTooLarge) {
			return &IngestResult{TooLarge: true}, nil
		}
		return s.salvageSpool(tmp, tmpName, workers)
	}

	meta := &RunMeta{
		ID:           hex.EncodeToString(hash.Sum(nil)),
		Name:         stream.Profile().Name,
		Format:       stream.Format(),
		Compressed:   stream.Compressed(),
		Records:      stream.TotalRecords(),
		Blocks:       stream.TotalBlocks(),
		Bytes:        size.n,
		FinalClock:   stream.Profile().FinalClock,
		ReceivedUnix: time.Now().Unix(),
	}
	// The spool must be on stable storage before commit renames it into
	// runs/ — rename durability without content durability is a torn run.
	if err := tmp.Sync(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	dup, err := s.commit(meta, tmpName)
	if err != nil {
		return nil, err
	}
	res := &IngestResult{Meta: meta, Duplicate: dup}
	if !dup {
		res.Report = rep
	}
	return res, nil
}

// ingestStream drives the block pipeline: the main goroutine pulls blocks
// off the stream while the pool decodes and aggregates them; per-block
// accumulators merge in block order, so the report is byte-identical to
// drag.AnalyzeLog (and hence to a serial pass).
func ingestStream(r io.Reader, workers int) (*drag.Report, *profile.LogStream, error) {
	stream, err := profile.OpenLogStream(r)
	if err != nil {
		return nil, nil, err
	}
	p := stream.Profile()
	var (
		mu       sync.Mutex
		parts    = make(map[int]*drag.Accumulator)
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	blocks := make(chan *profile.Block, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for blk := range blocks {
				recs, err := blk.Decode()
				if err != nil {
					setErr(err)
					continue
				}
				acc := drag.NewAccumulator(p, drag.Options{})
				for _, r := range recs {
					acc.Add(r)
				}
				mu.Lock()
				parts[blk.Index] = acc
				mu.Unlock()
			}
		}()
	}
	nblocks := 0
	for {
		blk, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			setErr(err)
			break
		}
		nblocks++
		blocks <- blk
	}
	close(blocks)
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	acc := drag.NewAccumulator(p, drag.Options{})
	for i := 0; i < nblocks; i++ {
		part, ok := parts[i]
		if !ok {
			return nil, nil, fmt.Errorf("store: block %d missing from sharded ingest", i)
		}
		acc.Merge(part)
	}
	return acc.Report(), stream, nil
}

// salvageSpool handles a damaged upload: re-reads the spooled prefix, runs
// profile.SalvageLog over it, and — when anything was recoverable — stores
// the salvaged profile re-encoded as an uncompressed binary log. The
// stored records are exactly SalvageLog's output.
func (s *Store) salvageSpool(tmp File, tmpName string, workers int) (*IngestResult, error) {
	if err := tmp.Close(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	data, err := os.ReadFile(tmpName)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	p, sr, serr := profile.SalvageLog(bytes.NewReader(data))
	if serr != nil || len(p.Records) == 0 {
		// Header/tables damaged or nothing before the first fault:
		// nothing storable, only the report survives.
		return &IngestResult{Salvage: sr}, nil
	}
	var buf bytes.Buffer
	if err := profile.WriteBinaryLog(&buf, p, profile.BinaryOptions{}); err != nil {
		return nil, fmt.Errorf("store: re-encoding salvaged run: %w", err)
	}
	rep := drag.AnalyzeParallel(p, drag.Options{}, workers)
	sum := sha256.Sum256(buf.Bytes())
	meta := &RunMeta{
		ID:           hex.EncodeToString(sum[:]),
		Name:         p.Name,
		Format:       sr.Format,
		Compressed:   sr.Compressed,
		Records:      sr.RecordsRecovered,
		Blocks:       sr.BlocksRecovered,
		Bytes:        int64(buf.Len()),
		FinalClock:   p.FinalClock,
		Salvaged:     true,
		Salvage:      sr,
		ReceivedUnix: time.Now().Unix(),
	}
	enc, err := s.fs.CreateTemp(filepath.Join(s.root, "tmp"), "salvage-*.spool")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	encName := enc.Name()
	defer s.fs.Remove(encName)
	if _, err := enc.Write(buf.Bytes()); err != nil {
		enc.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := enc.Sync(); err != nil {
		enc.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := enc.Close(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	dup, err := s.commit(meta, encName)
	if err != nil {
		return nil, err
	}
	res := &IngestResult{Meta: meta, Salvage: sr, Duplicate: dup}
	if !dup {
		res.Report = rep
	}
	return res, nil
}

// commit moves a fsynced spool into the home shard of the run's id and,
// unless the id was already stored, counts the run into the totals and
// marks its workload stale.
func (s *Store) commit(meta *RunMeta, spoolPath string) (duplicate bool, err error) {
	dup, err := s.home(meta.ID).commit(meta, spoolPath)
	if err != nil || dup {
		return dup, err
	}
	s.mu.Lock()
	s.addLocked(meta)
	s.dirty[meta.Name] = true
	s.mu.Unlock()
	return false, nil
}

// spoolWriter records the spool file's own write error so a server-side
// disk fault can be told apart from a damaged upload (io.TeeReader folds
// writer errors into the read stream).
type spoolWriter struct {
	f   File
	err error
}

func (w *spoolWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	if err != nil && w.err == nil {
		w.err = err
	}
	return n, err
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// runIDs lists the ids of a workload's runs across every shard, sorted
// (the compactor's deterministic merge order).
func (s *Store) runIDs(name string) []string {
	var ids []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, m := range sh.runs {
			if m.Name == name {
				ids = append(ids, id)
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(ids)
	return ids
}

func sameRunSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
