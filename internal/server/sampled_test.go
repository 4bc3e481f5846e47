package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"dragprof/internal/mj"
	"dragprof/internal/profile"
	"dragprof/internal/store"
	"dragprof/internal/vm"
)

// sampledSrc allocates through recursion chains up to 80 frames deep, so
// a sampled run interns only the chains of the few objects it samples and
// two sample seeds leave chain tables of different lengths.
const sampledSrc = `
class Box {
    int[] pad;
    Box(int n) { pad = new int[n]; }
}
class Maker {
    static Box make(int n) { return new Box(n); }
    static Box deep(int n, int d) {
        if (d == 0) { return make(n); }
        return deep(n, d - 1);
    }
}
class Main {
    static void main() {
        seedRandom(7);
        Box keep = null;
        for (int i = 0; i < 600; i = i + 1) {
            Box b = Maker.deep(8 + random(64), random(80));
            if (i % 5 == 0) { keep = b; }
        }
        printInt(keep.pad.length);
    }
}`

// TestSampledRunsOfOneBuildMerge: two runs of one program sampled at the
// same rate with different seeds have different chain tables but the same
// site table; they merge, and /api/v1/sites answers 200 over both.
func TestSampledRunsOfOneBuildMerge(t *testing.T) {
	prog, _, err := mj.CompileWithStdlib([]string{"t.mj"}, map[string]string{"t.mj": sampledSrc})
	if err != nil {
		t.Fatal(err)
	}
	var runs []*profile.Profile
	for seed := uint64(1); seed <= 2; seed++ {
		p, _, err := profile.Run(prog, "sampled", vm.Config{SampleRate: 1e-3, SampleSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, p)
	}
	if len(runs[0].ChainNodes) == len(runs[1].ChainNodes) {
		t.Fatalf("both seeds interned %d chain nodes; the fixture must differ in chain count", len(runs[0].ChainNodes))
	}

	_, ts := newTestServer(t)
	for _, p := range runs {
		if status, ir := postLog(t, ts, encodeLog(t, p)); status != http.StatusCreated {
			t.Fatalf("push: HTTP %d (%s)", status, ir.Error)
		}
	}
	status, body := get(t, ts.URL+"/api/v1/sites")
	if status != http.StatusOK {
		t.Fatalf("/api/v1/sites = %d, want 200: %s", status, body)
	}
	var sums []*store.SiteSummary
	if err := json.Unmarshal(body, &sums); err != nil {
		t.Fatal(err)
	}
	if len(sums) == 0 {
		t.Fatal("no merged sites")
	}
	for _, s := range sums {
		if s.Runs != 2 {
			t.Fatalf("site %s merged %d runs, want 2", s.Desc, s.Runs)
		}
	}
}
