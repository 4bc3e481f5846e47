package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"testing"

	"dragprof/internal/bench"
	"dragprof/internal/drag"
	"dragprof/internal/profile"
	"dragprof/internal/server"
	"dragprof/internal/store"
	"dragprof/internal/vm"
)

// jessFixture is one exact profile of jess (the quickest program), its log
// read back, and the analysis of that log.
type jessFixture struct {
	prof, dec *profile.Profile
	log       []byte
	rep       *drag.Report
}

var (
	jessOnce sync.Once
	jessFix  jessFixture
	jessErr  error
)

func jess(t *testing.T) jessFixture {
	t.Helper()
	jessOnce.Do(func() {
		b, err := bench.ByName("jess")
		if err != nil {
			jessErr = err
			return
		}
		bc, err := compile(b, 0)
		if err != nil {
			jessErr = err
			return
		}
		prof, _, err := profile.Run(bc, "jess", vm.Config{})
		if err != nil {
			jessErr = err
			return
		}
		var buf bytes.Buffer
		if err := profile.WriteBinaryLog(&buf, prof, profile.BinaryOptions{Compress: true}); err != nil {
			jessErr = err
			return
		}
		dec, err := profile.ReadLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			jessErr = err
			return
		}
		jessFix = jessFixture{prof: prof, dec: dec, log: buf.Bytes(), rep: drag.Analyze(dec, drag.Options{})}
	})
	if jessErr != nil {
		t.Fatal(jessErr)
	}
	return jessFix
}

// isCheck reports whether err is a failed output check.
func isCheck(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

func TestOwnTotals(t *testing.T) {
	p := &profile.Profile{Records: []*profile.Record{
		{Size: 10, Create: 5, LastUse: 8, Collect: 20},
		{Size: 4, Create: 10, Collect: 30}, // never used: all of its life is drag
		{Size: 100, Create: 0, LastUse: 1, Collect: 50, Interned: true},
	}}
	got := ownTotals(p)
	want := totals{drag: 10*12 + 4*20, reach: 10*15 + 4*20, inUse: 10 * 3}
	if got != want {
		t.Fatalf("ownTotals = %+v, want %+v", got, want)
	}
}

func TestCheckTotals(t *testing.T) {
	f := jess(t)
	own := ownTotals(f.dec)
	if err := checkTotals(f.rep, own); err != nil {
		t.Fatal(err)
	}
	off := *f.rep
	off.TotalDrag++
	if err := checkTotals(&off, own); !isCheck(err) {
		t.Errorf("total drag off by one: got %v", err)
	}
	bad := own
	bad.drag--
	if err := checkTotals(f.rep, bad); !isCheck(err) {
		t.Errorf("own drag off by one: got %v", err)
	}
	bad = own
	bad.reach++
	if err := checkTotals(f.rep, bad); !isCheck(err) {
		t.Errorf("reachable integral off by one: got %v", err)
	}
}

func TestCheckExactDrag(t *testing.T) {
	f := jess(t)
	if err := checkExactDrag("jess", f.rep.TotalDrag); err != nil {
		t.Fatal(err)
	}
	if err := checkExactDrag("jess", f.rep.TotalDrag+1); !isCheck(err) {
		t.Errorf("exact drag off by one: got %v", err)
	}
}

func TestCheckRoundTrip(t *testing.T) {
	f := jess(t)
	if err := checkRoundTrip(f.prof, f.dec); err != nil {
		t.Fatal(err)
	}
	dropped := *f.dec
	dropped.Records = f.dec.Records[:len(f.dec.Records)-1]
	if err := checkRoundTrip(f.prof, &dropped); !isCheck(err) {
		t.Errorf("dropped record: got %v", err)
	}
	changed := *f.dec
	changed.Records = append([]*profile.Record(nil), f.dec.Records...)
	r := *changed.Records[7]
	r.Collect++
	changed.Records[7] = &r
	if err := checkRoundTrip(f.prof, &changed); !isCheck(err) {
		t.Errorf("record with a wrong collection time: got %v", err)
	}
}

func TestCheckEstimate(t *testing.T) {
	rep := &drag.Report{SampleRate: 1e-3, EstTotalDrag: 1000, EstTotalDragCI: 10}
	if within, err := checkEstimate(rep, 1015); err != nil || !within {
		t.Errorf("estimate 1.5 half-widths out: within=%v err=%v", within, err)
	}
	if within, err := checkEstimate(rep, 1021); err != nil || within {
		t.Errorf("estimate 2.1 half-widths out: within=%v err=%v", within, err)
	}
	exact := &drag.Report{SampleRate: 1, EstTotalDrag: 1000, EstTotalDragCI: 10}
	if _, err := checkEstimate(exact, 1000); !isCheck(err) {
		t.Errorf("exact report taken for an estimate: got %v", err)
	}
	if err := checkCoverage(1, 36); err != nil {
		t.Error(err)
	}
	if err := checkCoverage(4, 36); !isCheck(err) {
		t.Errorf("4 misses of 36: got %v", err)
	}
}

func TestCheckRunID(t *testing.T) {
	f := jess(t)
	st, err := store.OpenSharded(t.TempDir(), shards)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Ingest(bytes.NewReader(f.log), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRunID(res.Meta.ID, f.log); err != nil {
		t.Fatal(err)
	}
	wrong := []byte(res.Meta.ID)
	wrong[0] ^= 1
	if err := checkRunID(string(wrong), f.log); !isCheck(err) {
		t.Errorf("wrong run id: got %v", err)
	}
}

func TestCheckSites(t *testing.T) {
	sums := []*store.SiteSummary{
		{Name: "jess", Desc: "a", Runs: 2, Drag: 50},
		{Name: "javac", Desc: "b", Runs: 1, Drag: 30},
		{Name: "jess", Desc: "c", Runs: 2, Drag: 20},
	}
	want := map[string]int64{"jess": 70, "javac": 30}
	if err := checkSiteTotals(sums, want); err != nil {
		t.Fatal(err)
	}
	if err := checkSiteTotals(sums[:2], want); !isCheck(err) {
		t.Errorf("dropped site: got %v", err)
	}
	if err := checkSiteTotals(sums, map[string]int64{"jess": 70}); !isCheck(err) {
		t.Errorf("workload never stored: got %v", err)
	}
	runs := map[string]int{"jess": 2, "javac": 1}
	if err := checkTopSites(sums, 3, runs); err != nil {
		t.Fatal(err)
	}
	if err := checkTopSites(sums, 2, runs); !isCheck(err) {
		t.Errorf("more sites than top: got %v", err)
	}
	if err := checkTopSites([]*store.SiteSummary{sums[1], sums[0]}, 3, runs); !isCheck(err) {
		t.Errorf("unsorted sites: got %v", err)
	}
	if err := checkTopSites(sums, 3, map[string]int{"jess": 3, "javac": 1}); !isCheck(err) {
		t.Errorf("site merging too few runs: got %v", err)
	}
}

func TestCheckDiff(t *testing.T) {
	base := totals{drag: 100, reach: 300, inUse: 200}
	head := totals{drag: 60, reach: 250, inUse: 190}
	d := &server.DiffResponse{
		BaseReachableMB2: drag.MB2(base.reach),
		HeadReachableMB2: drag.MB2(head.reach),
		DragSavingPct:    (drag.MB2(300) - drag.MB2(250)) / (drag.MB2(300) - drag.MB2(200)) * 100,
		Sites: []server.SiteDeltaJSON{
			{BaseDrag: 70, HeadDrag: 40, DragDelta: -30},
			{BaseDrag: 30, HeadDrag: 20, DragDelta: -10},
		},
	}
	if err := checkDiff(d, base, head); err != nil {
		t.Fatal(err)
	}
	dropped := *d
	dropped.Sites = d.Sites[:1]
	if err := checkDiff(&dropped, base, head); !isCheck(err) {
		t.Errorf("dropped site: got %v", err)
	}
	off := *d
	off.DragSavingPct += 1
	if err := checkDiff(&off, base, head); !isCheck(err) {
		t.Errorf("wrong saving: got %v", err)
	}
	head.drag++
	if err := checkDiff(d, base, head); !isCheck(err) {
		t.Errorf("head total off by one: got %v", err)
	}
}

func TestSmallChecks(t *testing.T) {
	if err := checkOutput("a\n", "a\n"); err != nil {
		t.Error(err)
	}
	if err := checkOutput("a\n", "b\n"); !isCheck(err) {
		t.Errorf("different output: got %v", err)
	}
	if err := checkClock(5, 6); !isCheck(err) {
		t.Errorf("clock off by one: got %v", err)
	}
	if err := checkStatus(http.StatusOK, http.StatusCreated); !isCheck(err) {
		t.Errorf("200 for a new run: got %v", err)
	}
}

// TestPublishRound runs a publish round against a real dragserved: every
// reply checks out, and a wrong own total fails the diff check.
func TestPublishRound(t *testing.T) {
	f := jess(t)
	b := &harness{work: t.TempDir(), log: io.Discard, readRepeats: 1, diffRepeats: 1, metrics: map[string]metric{}, tr: newTracer()}
	p, err := b.openPublisher("pub", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	ups := []upload{{name: "jess", log: f.log, own: ownTotals(f.dec)}}
	rt, err := b.publishRound(p, ups, "", totals{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.attempted != 3 || b.failed != 0 || len(rt.push) != 1 || rt.ingest <= 0 || rt.fs.syncs == 0 {
		t.Fatalf("attempted %d failed %d, round %+v", b.attempted, b.failed, rt)
	}
	if err := p.repeat(f.log); err != nil {
		t.Fatal(err)
	}
	sums, err := p.d.sites(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSiteTotals(sums, p.drag); err != nil {
		t.Fatal(err)
	}
	wrong := p.drag["jess"] + 1
	if err := checkSiteTotals(sums, map[string]int64{"jess": wrong}); !isCheck(err) {
		t.Errorf("site totals off by one: got %v", err)
	}
	if err := p.repeat(f.log[:len(f.log)-1]); err == nil {
		t.Error("a truncated log passed for a repeat")
	}
}

// TestClone serves a copy of a stopped service's store: the copy holds
// the runs, and a push to it leaves the original as it was.
func TestClone(t *testing.T) {
	f := jess(t)
	b := &harness{work: t.TempDir(), log: io.Discard, metrics: map[string]metric{}}
	seeded, err := b.openPublisher("seeded", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seeded.upload("jess", f.log, ownTotals(f.dec)); err != nil {
		t.Fatal(err)
	}
	if err := seeded.d.close(); err != nil {
		t.Fatal(err)
	}
	c, err := b.clone(seeded, "copy", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.repeat(f.log); err != nil {
		t.Fatalf("the copy lost the stored run: %v", err)
	}
	// The same profile uncompressed is a new run of the same workload.
	var other bytes.Buffer
	if err := profile.WriteBinaryLog(&other, f.prof, profile.BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.upload("jess", other.Bytes(), ownTotals(f.dec)); err != nil {
		t.Fatal(err)
	}
	if c.st.NumRuns() != 2 || c.runs["jess"] != 2 || seeded.runs["jess"] != 1 {
		t.Fatalf("copy holds %d runs, tallies %v, original's %v", c.st.NumRuns(), c.runs, seeded.runs)
	}
	reopened, err := store.OpenSharded(filepath.Join(seeded.dir, "store"), shards)
	if err != nil {
		t.Fatal(err)
	}
	if n := reopened.NumRuns(); n != 1 {
		t.Fatalf("the original holds %d runs after a push to its copy, want 1", n)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "a", StartNs: 30, EndNs: 60},
		{ID: 4, Parent: 1, Name: "b", StartNs: 90, EndNs: 120},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	// The children cover 10..60 and 90..100 of the round: 60 ns.
	if r := got["round"]; r.TotalMs != 100e-6 || r.SelfMs != 40e-6 {
		t.Errorf("round = %+v", r)
	}
	if a := got["a"]; a.Spans != 2 || a.TotalMs != 60e-6 || a.SelfMs != 60e-6 {
		t.Errorf("a = %+v", a)
	}
}

func TestRoundsAndSeeds(t *testing.T) {
	b := &harness{seconds: 16}
	if n := b.rounds(7); n != 2 {
		t.Errorf("rounds(7) at 16 s = %d", n)
	}
	if n := b.rounds(100); n != 1 {
		t.Errorf("rounds(100) at 16 s = %d", n)
	}
	a, c := javacSeeds(1, 12), javacSeeds(1, 12)
	seen := map[int]bool{}
	for i, v := range a {
		if v != c[i] || v == 7 || seen[v] {
			t.Fatalf("javacSeeds(1, 12) = %v", a)
		}
		seen[v] = true
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 {
		t.Error("median of an even sample")
	}
}
