package bench

import (
	"bytes"
	"sort"
	"testing"

	"dragprof/internal/profile"
	"dragprof/internal/vm"
)

// binlogGolden pins one profiled run: the SHA-256 of its uncompressed
// binary log, the VM's deterministic cost and the program's output.
type binlogGolden struct {
	log          string
	instructions int64
	runtimeUnits int64
	output       string
}

// Golden binary logs. The canonical-dump goldens pin the analyzer's output,
// which is blind to how the recorder numbers chains or orders trailers; these
// hashes pin the recorder's output itself, byte for byte, so a change to the
// VM's event path that renumbers one chain id, moves one clock value or
// drops one use event fails here. The gen/ and mc/ entries are exact runs
// under the generational and mark-compact collectors. Beside each log they pin the executed
// instruction count, the runtime-unit cost and a hash of the program
// output, so the interpreter cannot trade work for speed unnoticed.
var goldenBinaryLogs = map[string]binlogGolden{
	"exact/analyzer":   {"eef6cc6abb23f4b8d2cfdc8b3d5f7d52ae37b07146bd0d27fe039366d0a3b1a8", 10421291, 24982832, "2b2ca97d3c072024fee4e26bd3064d9c21ac476ed63ffd49b19583c051c6bca7"},
	"exact/db":         {"ae249f7abdad3a05a05c841db9d9013eb172f807bf3755fd1b1f7cf5c8ac7504", 4932045, 12505973, "bd7b0af801c2893686f42ec652d541099e88f5d67c268f9111a1fbc9bdf0f618"},
	"exact/euler":      {"92d5e256320593096d904974803ac55edc094c2f6ef8e09f7d7e8174d7454981", 255274349, 255500916, "7920db4fc3af045b8a49c127e6aca65946b3f79bd660f80ec4795ccb2e2967e8"},
	"exact/jack":       {"eb5d174746cf09a7f7bc31931a909c482b734f8fab653843237b4577a3eb5eb2", 7510599, 18123336, "9c6e745d3616b1e29c5a240d87af8c80781438b8b6bd543894e052622f118dd3"},
	"exact/javac":      {"c9cb4c345113847153fa1add3d6d9f062e6465bb1934ef6b1831399fce21d122", 5828518, 10041088, "333d28be729ad33e855bea85684e11dcf003812b2475765159efa6d3999c318c"},
	"exact/jess":       {"383112668ef68ab4ef919ebb4a116254ec499fba6de4e8c4290383e5cee834d0", 823699, 5697062, "63255509156a770c3a901740316c6e71158a15b86f8e9182cfa47055db9d2a18"},
	"exact/juru":       {"4c47ce23b37537fe253ed39e5fb863e06e69c2f1c359c814f2057f67b4df1f82", 3109968, 7996877, "e51a4c7ab7b0c916d3dbafcfb844feebd44ecb995697e478f6be170ba275207a"},
	"exact/mc":         {"0798f4d5328fcb54d32681db761fed4bc02dd29e8f27b4000e76338f74cdf18f", 16212414, 24866202, "b2cbd28b2eb411875e334c9ba9e5094222a9f450b18fa35450b0919231839c88"},
	"exact/raytrace":   {"2082cbd28c4de2775c652cae8ddf872e8a6258422a54fbd43b20084d92892a0a", 5579807, 8331028, "0877cb77aeb1ac8e7c67dfe99a4396c6cce4cf969f8cce810202fa7c015c6e35"},
	"gen/jack":         {"eb5d174746cf09a7f7bc31931a909c482b734f8fab653843237b4577a3eb5eb2", 7510599, 18299034, "9c6e745d3616b1e29c5a240d87af8c80781438b8b6bd543894e052622f118dd3"},
	"gen/javac":        {"c9cb4c345113847153fa1add3d6d9f062e6465bb1934ef6b1831399fce21d122", 5828518, 10148779, "333d28be729ad33e855bea85684e11dcf003812b2475765159efa6d3999c318c"},
	"gen/jess":         {"383112668ef68ab4ef919ebb4a116254ec499fba6de4e8c4290383e5cee834d0", 823699, 5722457, "63255509156a770c3a901740316c6e71158a15b86f8e9182cfa47055db9d2a18"},
	"mc/jack":          {"eb5d174746cf09a7f7bc31931a909c482b734f8fab653843237b4577a3eb5eb2", 7510599, 18123336, "9c6e745d3616b1e29c5a240d87af8c80781438b8b6bd543894e052622f118dd3"},
	"mc/javac":         {"c9cb4c345113847153fa1add3d6d9f062e6465bb1934ef6b1831399fce21d122", 5828518, 10041088, "333d28be729ad33e855bea85684e11dcf003812b2475765159efa6d3999c318c"},
	"mc/jess":          {"383112668ef68ab4ef919ebb4a116254ec499fba6de4e8c4290383e5cee834d0", 823699, 5697062, "63255509156a770c3a901740316c6e71158a15b86f8e9182cfa47055db9d2a18"},
	"sampled/analyzer": {"368fbe3181368ff270beb8742873596605eb630d6cc899a54829b9e75f4aee45", 10421291, 24982832, "2b2ca97d3c072024fee4e26bd3064d9c21ac476ed63ffd49b19583c051c6bca7"},
	"sampled/db":       {"aef451ea220f5e73f251cf1c9452e8c0466353278e87a99709918a0d4856bd57", 4932045, 12505973, "bd7b0af801c2893686f42ec652d541099e88f5d67c268f9111a1fbc9bdf0f618"},
	"sampled/euler":    {"f5ee6366d76b2084dd35b75b58964822cf607403cae1185ece7ce9908f7cb919", 255274349, 255500916, "7920db4fc3af045b8a49c127e6aca65946b3f79bd660f80ec4795ccb2e2967e8"},
	"sampled/jack":     {"7062c08117d4de0abbbb2887a578e60d0310b39459ec4bcccc53686846dbb22a", 7510599, 18123336, "9c6e745d3616b1e29c5a240d87af8c80781438b8b6bd543894e052622f118dd3"},
	"sampled/javac":    {"c07ac0ed9779e3dd7a36d243ae7354d3c44100a597c7c508ed904c15d7bd5b28", 5828518, 10041088, "333d28be729ad33e855bea85684e11dcf003812b2475765159efa6d3999c318c"},
	"sampled/jess":     {"04cf1bc14e0aa26253e3b8b8e9d6d9ebac04c962cde5e869636d45d966a81208", 823699, 5697062, "63255509156a770c3a901740316c6e71158a15b86f8e9182cfa47055db9d2a18"},
	"sampled/juru":     {"83bc4aa9e0374c05c2c8f8a19cdd5571097b61bedc91bce770b0554033cd701a", 3109968, 7996877, "e51a4c7ab7b0c916d3dbafcfb844feebd44ecb995697e478f6be170ba275207a"},
	"sampled/mc":       {"b2aa2d411b5b4ea1e83af64bd19b4c0610930439d6886b219ea2bf6f33aa55bc", 16212414, 24866202, "b2cbd28b2eb411875e334c9ba9e5094222a9f450b18fa35450b0919231839c88"},
	"sampled/raytrace": {"13a8f62e22849d4d32b98dbc7162e1b247d4da31e86059a181a402616a0fb98d", 5579807, 8331028, "0877cb77aeb1ac8e7c67dfe99a4396c6cce4cf969f8cce810202fa7c015c6e35"},
}

// collectorGoldenNames are the programs also pinned under the generational
// (gen/) and mark-compact (mc/) collectors.
var collectorGoldenNames = []string{"javac", "jack", "jess"}

func TestGoldenBinaryLogs(t *testing.T) {
	got := map[string]binlogGolden{}
	for _, name := range Names() {
		got["exact/"+name] = binlogOf(t, diffResult(t, name))

		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(b, Original, OriginalInput, RunConfig{SampleRate: goldenSampleRate, SampleSeed: goldenSampleSeed})
		if err != nil {
			t.Fatal(err)
		}
		got["sampled/"+name] = binlogOf(t, r)
	}
	// The generational collector takes minor collections at safepoints,
	// a path the mark-sweep runs above never reach; mark-compact relocates
	// every survivor after each sweep.
	for _, name := range collectorGoldenNames {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for prefix, col := range map[string]vm.CollectorKind{"gen/": vm.Generational, "mc/": vm.MarkCompact} {
			r, err := Run(b, Original, OriginalInput, RunConfig{Collector: col})
			if err != nil {
				t.Fatal(err)
			}
			got[prefix+name] = binlogOf(t, r)
		}
	}
	// A deep GC reclaims everything unreachable, so an exact log cannot
	// depend on which collector ran it.
	for _, name := range collectorGoldenNames {
		ms := got["exact/"+name].log
		if mc, gen := got["mc/"+name].log, got["gen/"+name].log; mc != ms || gen != ms {
			t.Errorf("%s: exact logs differ across collectors: mark-sweep %s, mark-compact %s, generational %s", name, ms, mc, gen)
		}
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want, ok := goldenBinaryLogs[k]
		switch {
		case !ok:
			t.Errorf("no golden for %s: got %#v", k, got[k])
		case want != got[k]:
			t.Errorf("%s: got %#v, golden %#v", k, got[k], want)
		}
	}
	for k := range goldenBinaryLogs {
		if _, ok := got[k]; !ok {
			t.Errorf("golden %s was not computed", k)
		}
	}
}

func binlogOf(t *testing.T, r *RunResult) binlogGolden {
	t.Helper()
	var buf bytes.Buffer
	if err := profile.WriteBinaryLog(&buf, r.Profile, profile.BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	return binlogGolden{
		log:          dumpHash(buf.Bytes()),
		instructions: r.Cost.Instructions,
		runtimeUnits: r.Cost.RuntimeUnits(),
		output:       dumpHash([]byte(r.Output)),
	}
}
