package drag

import (
	"bytes"
	"testing"

	"dragprof/internal/bytecode"
	"dragprof/internal/profile"
	"dragprof/internal/vm"
)

// syntheticProfile builds a deterministic profile with enough records and
// distinct sites/chains to exercise the chunked merge (including interned
// records, never-used objects and shared group keys across chunks).
func syntheticProfile(n int) *profile.Profile {
	p := &profile.Profile{
		Name:        "synthetic",
		FinalClock:  int64(n) * 96,
		GCInterval:  8 << 10,
		ClassNames:  []string{"A", "B", "C"},
		MethodNames: []string{"Main.main", "A.build", "B.use", "C.leak"},
		MethodFiles: []string{"main.mj", "a.mj", "b.mj", "c.mj"},
	}
	for i := 0; i < 6; i++ {
		p.Sites = append(p.Sites, bytecode.Site{
			ID: int32(i), Method: int32(i % 4), Line: int32(10 + i),
			What: "T" + string(rune('0'+i)), Desc: "site-" + string(rune('0'+i)),
		})
	}
	p.ChainNodes = []vm.ChainNode{
		{Parent: -1, Method: 0, Line: 11},
		{Parent: 0, Method: 1, Line: 12},
		{Parent: 1, Method: 2, Line: 13},
		{Parent: 0, Method: 3, Line: 14},
		{Parent: 3, Method: 2, Line: 15},
	}
	// A small deterministic LCG scatters lifetimes across groups.
	seed := uint64(12345)
	next := func(mod int64) int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int64(seed>>33) % mod
	}
	for i := 0; i < n; i++ {
		create := int64(i) * 96
		r := &profile.Record{
			AllocID: uint64(i + 1),
			Class:   int32(i % 3),
			Size:    16 + next(200)*8,
			Site:    int32(i % 6),
			Chain:   int32(next(5)),
			Create:  create,
			Collect: create + 512 + next(1<<16),
		}
		switch i % 4 {
		case 0: // never used
			r.LastUseChain = -1
		case 1: // constructor-only use
			r.LastUse = create + next(64)
			r.LastUseChain = r.Chain
			r.Uses = 1
		default:
			r.LastUse = create + 256 + next(1<<15)
			if r.LastUse > r.Collect {
				r.LastUse = r.Collect
			}
			r.LastUseChain = int32(next(5))
			r.LastUseKind = vm.UseKind(next(3))
			r.Uses = 1 + next(40)
		}
		if i%97 == 0 {
			r.Interned = true
		}
		p.Records = append(p.Records, r)
	}
	return p
}

// TestParallelMatchesSerial: the parallel analyzer must produce a report
// byte-identical to the serial one at every worker count.
func TestParallelMatchesSerial(t *testing.T) {
	p := syntheticProfile(50000)
	want := Analyze(p, Options{}).CanonicalDump()
	for _, workers := range []int{1, 2, 3, 4, 8, 16} {
		got := AnalyzeParallel(p, Options{}, workers).CanonicalDump()
		if !bytes.Equal(want, got) {
			t.Errorf("workers=%d: parallel report differs from serial (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}

// TestAnalyzeLogMatchesSerial: streaming a log (compressed and not)
// through the parallel pipeline must also be byte-identical.
func TestAnalyzeLogMatchesSerial(t *testing.T) {
	p := syntheticProfile(20000)
	want := Analyze(p, Options{}).CanonicalDump()

	var bin, gz bytes.Buffer
	if err := profile.WriteBinaryLog(&bin, p, profile.BinaryOptions{BlockRecords: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := profile.WriteBinaryLog(&gz, p, profile.BinaryOptions{Compress: true, BlockRecords: 1000}); err != nil {
		t.Fatal(err)
	}
	for name, log := range map[string][]byte{
		"binary": bin.Bytes(), "binary-gzip": gz.Bytes(),
	} {
		for _, workers := range []int{1, 4, 9} {
			rep, err := AnalyzeLog(bytes.NewReader(log), Options{}, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if got := rep.CanonicalDump(); !bytes.Equal(want, got) {
				t.Errorf("%s workers=%d: streamed report differs from serial", name, workers)
			}
		}
	}
}

// TestParallelDeterminismDoubleRun: two parallel runs over the same input
// must agree byte-for-byte — run under -race in CI, this doubles as the
// aggregator's race check.
func TestParallelDeterminismDoubleRun(t *testing.T) {
	p := syntheticProfile(30000)
	a := AnalyzeParallel(p, Options{}, 8).CanonicalDump()
	b := AnalyzeParallel(p, Options{}, 8).CanonicalDump()
	if !bytes.Equal(a, b) {
		t.Error("parallel analyzer is not deterministic across runs")
	}
	var bin bytes.Buffer
	if err := profile.WriteBinaryLog(&bin, p, profile.BinaryOptions{BlockRecords: 512}); err != nil {
		t.Fatal(err)
	}
	r1, err := AnalyzeLog(bytes.NewReader(bin.Bytes()), Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := AnalyzeLog(bytes.NewReader(bin.Bytes()), Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.CanonicalDump(), r2.CanonicalDump()) {
		t.Error("streaming parallel analyzer is not deterministic across runs")
	}
}

// TestAnalyzeLogPropagatesDecodeErrors: a log whose record section is
// corrupt must fail the streamed analysis, not silently drop blocks.
func TestAnalyzeLogPropagatesDecodeErrors(t *testing.T) {
	p := syntheticProfile(5000)
	var bin bytes.Buffer
	if err := profile.WriteBinaryLog(&bin, p, profile.BinaryOptions{BlockRecords: 256}); err != nil {
		t.Fatal(err)
	}
	bad := bin.Bytes()
	bad[len(bad)-40] ^= 0xff
	if _, err := AnalyzeLog(bytes.NewReader(bad), Options{}, 4); err == nil {
		t.Error("corrupt log analyzed without error")
	}
}

// TestOutOfTableIDs: site and chain ids outside the profile's tables
// (possible only in damaged or hand-made logs) group as "<none>" sites and
// "<top>" chains, and the parallel merge still matches the serial pass.
func TestOutOfTableIDs(t *testing.T) {
	p := syntheticProfile(20000)
	for i, r := range p.Records {
		switch i % 7 {
		case 0:
			r.Site = 99
		case 1:
			r.Site = -3
			r.Chain = 77
		case 2:
			r.LastUseChain = 55
		}
	}
	serial := Analyze(p, Options{})
	if got := AnalyzeParallel(p, Options{}, 4).CanonicalDump(); !bytes.Equal(serial.CanonicalDump(), got) {
		t.Fatal("parallel report differs from serial with out-of-table ids")
	}
	found := map[string]string{}
	for _, g := range append(serial.BySite, serial.ByNestedSite...) {
		found[g.Key] = g.Desc
	}
	for key, desc := range map[string]string{"site:99": "<none>", "site:-3": "<none>", "chain:": "<top>"} {
		if found[key] != desc {
			t.Errorf("group %q: desc %q, want %q", key, found[key], desc)
		}
	}
}
