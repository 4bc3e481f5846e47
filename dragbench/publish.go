package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dragprof/internal/drag"
	"dragprof/internal/store"
)

// publisher is a dragserved on a sharded store, plus what the benchmark
// expects the store to hold. Traced runs keep a side store that receives
// the same uploads through direct calls, which splits a request's time
// between the store and the HTTP layer.
type publisher struct {
	dir string
	d   *dragserved
	st  *store.Sharded

	side    *store.Sharded
	sideDir string
	sideFS  *timingFS

	runs map[string]int   // stored runs per workload
	drag map[string]int64 // own drag summed over the stored runs, per workload
	ids  map[string]bool
}

// openPublisher opens a fresh store under the work directory and serves
// it; debounce is passed to startDragserved.
func (b *harness) openPublisher(name string, debounce time.Duration) (*publisher, error) {
	p := &publisher{runs: map[string]int{}, drag: map[string]int64{}, ids: map[string]bool{}}
	return p, b.serve(p, filepath.Join(b.work, name), debounce)
}

// clone copies a closed publisher's stores to a new directory and serves
// the copy: it holds the same runs, and pushes to it leave the original
// as it was.
func (b *harness) clone(from *publisher, name string, debounce time.Duration) (*publisher, error) {
	dir := filepath.Join(b.work, name)
	if err := copyTree(from.dir, dir); err != nil {
		return nil, err
	}
	p := &publisher{runs: map[string]int{}, drag: map[string]int64{}, ids: map[string]bool{}}
	for k, v := range from.runs {
		p.runs[k] = v
	}
	for k, v := range from.drag {
		p.drag[k] = v
	}
	for k, v := range from.ids {
		p.ids[k] = v
	}
	if err := b.serve(p, dir, debounce); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return p, nil
}

// serve opens (or creates) the stores under dir and serves the main one.
func (b *harness) serve(p *publisher, dir string, debounce time.Duration) error {
	st, err := store.OpenSharded(filepath.Join(dir, "store"), shards)
	if err != nil {
		return err
	}
	d, err := startDragserved(st, debounce)
	if err != nil {
		return err
	}
	p.dir, p.d, p.st = dir, d, st
	if b.tr != nil {
		p.sideDir = filepath.Join(dir, "side")
		p.sideFS = &timingFS{}
		if p.side, err = store.OpenShardedFS(p.sideDir, shards, p.sideFS); err != nil {
			d.close()
			return err
		}
	}
	return nil
}

// copyTree copies the directories and regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		switch {
		case d.IsDir():
			return os.MkdirAll(to, 0o755)
		case d.Type().IsRegular():
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(to, data, 0o644)
		}
		return nil
	})
}

// close stops the service and deletes both stores.
func (p *publisher) close() error {
	err := p.d.close()
	if rerr := os.RemoveAll(p.dir); err == nil {
		err = rerr
	}
	return err
}

// upload pushes one log that the store does not hold yet and checks the
// reply: 201 and the SHA-256 of the bytes as run id.
func (p *publisher) upload(name string, log []byte, own totals) (string, error) {
	status, resp, err := p.d.push(log)
	if err != nil {
		return "", err
	}
	if err := checkStatus(status, http.StatusCreated); err != nil {
		return "", err
	}
	if resp.Run == nil {
		return "", checkf("201 reply carries no run")
	}
	if err := checkRunID(resp.Run.ID, log); err != nil {
		return "", err
	}
	if !p.ids[resp.Run.ID] {
		p.ids[resp.Run.ID] = true
		p.runs[name]++
		p.drag[name] += own.drag
	}
	return resp.Run.ID, nil
}

// repeat pushes a log the store already holds: 200 and the same id.
func (p *publisher) repeat(log []byte) error {
	status, resp, err := p.d.push(log)
	if err != nil {
		return err
	}
	if err := checkStatus(status, http.StatusOK); err != nil {
		return err
	}
	if resp.Run == nil || !resp.Duplicate {
		return checkf("200 reply does not mark a duplicate")
	}
	return checkRunID(resp.Run.ID, log)
}

// sideIngest stores one log in the side store without HTTP.
func (p *publisher) sideIngest(log []byte) error {
	res, err := p.side.Ingest(bytes.NewReader(log), runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	if !res.Clean() || res.Meta == nil {
		return fmt.Errorf("side store rejected a clean log")
	}
	return nil
}

// upload is one log a round pushes, with the benchmark's own totals.
type upload struct {
	name string
	log  []byte
	own  totals
}

// roundTimes are the timings of one publish round. The per-layer fields
// are filled by traced runs only.
type roundTimes struct {
	push        []time.Duration // one per upload, in round order
	sites, diff time.Duration

	ingest, compact, report, open, sitesIdle time.Duration
	fs                                       fsCounts
	compactions                              int64
}

// publishRound pushes the round's logs, queries /sites?top=20 at once and
// then diffs the run the round names against a baseline run; every reply
// is checked. Traced runs then replay the round on the side store and
// query /sites again with nothing left to compact.
func (b *harness) publishRound(p *publisher, ups []upload, baseID string, base totals, diffIdx int, op int) (roundTimes, error) {
	var rt roundTimes
	var c0 int64
	if b.tr != nil {
		var err error
		if c0, err = p.d.compactions(); err != nil {
			return rt, err
		}
	}
	parent := b.begin("round.publish", timing{}, op)
	defer parent.end()
	var headID string
	var pushed time.Time
	for i, u := range ups {
		settle()
		t := b.begin("server.push", parent, op)
		id, err := p.upload(u.name, u.log, u.own)
		rt.push = append(rt.push, t.end())
		pushed = time.Now()
		b.op("push "+u.name, err)
		if err != nil {
			return rt, err
		}
		if i == diffIdx {
			headID = id
		}
	}
	if baseID == "" {
		baseID, base = headID, ups[diffIdx].own
	}

	// The /sites window runs on to the end of the background merge the
	// last push scheduled, which overlaps the query: the CPU both spend is
	// counted whole, and none of it spills into the /diff after.
	settle()
	t := b.begin("server.sites", parent, op)
	top, err := p.d.sites(20)
	p.d.awaitCompactor(pushed)
	rt.sites = t.end()
	if err == nil {
		err = checkTopSites(top, 20, p.runs)
	}
	b.op("sites", err)
	if err != nil {
		return rt, err
	}

	var diffs []float64
	for i := 0; i < b.diffRepeats; i++ {
		settle()
		t = b.begin("server.diff", parent, op)
		d, err := p.d.diff(baseID, headID)
		diffs = append(diffs, float64(t.end()))
		if err == nil {
			err = checkDiff(d, base, ups[diffIdx].own)
		}
		b.op("diff", err)
		if err != nil {
			return rt, err
		}
	}
	rt.diff = time.Duration(median(diffs))

	if b.tr == nil {
		return rt, nil
	}
	return rt, b.sideRound(p, ups, baseID, headID, &rt, c0, parent, op)
}

// sideRound measures the store layer alone on the side store, which holds
// the same runs as the served one.
func (b *harness) sideRound(p *publisher, ups []upload, baseID, headID string, rt *roundTimes, c0 int64, parent timing, op int) error {
	before := p.sideFS.counts()
	for _, u := range ups {
		settle()
		t := b.begin("store.ingest", parent, op)
		err := p.sideIngest(u.log)
		rt.ingest += t.end()
		if err != nil {
			return err
		}
	}
	rt.fs = p.sideFS.counts().sub(before)
	settle()
	t := b.begin("store.compact", parent, op)
	err := p.side.Compact(runtime.GOMAXPROCS(0))
	rt.compact = t.end()
	if err != nil {
		return err
	}
	settle()
	t = b.begin("store.report", parent, op)
	for _, id := range []string{baseID, headID} {
		if _, err = p.side.Report(id, drag.Options{}, runtime.GOMAXPROCS(0)); err != nil {
			break
		}
	}
	rt.report = t.end()
	if err != nil {
		return err
	}
	settle()
	t = b.begin("server.sites_idle", parent, op)
	_, err = p.d.sites(20)
	rt.sitesIdle = t.end()
	if err != nil {
		return err
	}
	settle()
	t = b.begin("store.open", parent, op)
	p.side, err = store.OpenShardedFS(p.sideDir, shards, p.sideFS)
	rt.open = t.end()
	if err != nil {
		return err
	}
	c1, err := p.d.compactions()
	rt.compactions = c1 - c0
	return err
}
