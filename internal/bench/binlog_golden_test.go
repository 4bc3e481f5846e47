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
	"exact/analyzer":   {"8cadec0f840f26059d125858b6a4f57ab5d90baad49f961b161fe6b851fede9c", 10421291, 24982832, "2b2ca97d3c072024fee4e26bd3064d9c21ac476ed63ffd49b19583c051c6bca7"},
	"exact/db":         {"c1d9fb5f1575db81c6329790294e27196962ad7a04bff3c113a9f7096c1ffa77", 4932045, 12505973, "bd7b0af801c2893686f42ec652d541099e88f5d67c268f9111a1fbc9bdf0f618"},
	"exact/euler":      {"0a73b03f009b4dba36b9736bd848fda73625bfe854246b04795ba7e6d00e5e1f", 255274349, 255500916, "7920db4fc3af045b8a49c127e6aca65946b3f79bd660f80ec4795ccb2e2967e8"},
	"exact/jack":       {"b355786b0971f18f334a949b529f9d00bf6aae31bf0f11d0518bfa176ea3732d", 7510599, 18123336, "9c6e745d3616b1e29c5a240d87af8c80781438b8b6bd543894e052622f118dd3"},
	"exact/javac":      {"ac513474b5a431c9e51f07e8b309672b344b08a018c6d0268ec3c4e96b0c4787", 5828518, 10041088, "333d28be729ad33e855bea85684e11dcf003812b2475765159efa6d3999c318c"},
	"exact/jess":       {"215b1267a79586d363a745c9066a10b57af5c745c8fd9676b2a0203078d45354", 823699, 5697062, "63255509156a770c3a901740316c6e71158a15b86f8e9182cfa47055db9d2a18"},
	"exact/juru":       {"5b2660560efbe6494b0c94ac05c5332e8f32d2315058b4740f2023a162958f8f", 3109968, 7996877, "e51a4c7ab7b0c916d3dbafcfb844feebd44ecb995697e478f6be170ba275207a"},
	"exact/mc":         {"483f6c54553c1d5b954043724a48691c16c8fc36c77481e4b919b1eccf960148", 16212414, 24866202, "b2cbd28b2eb411875e334c9ba9e5094222a9f450b18fa35450b0919231839c88"},
	"exact/raytrace":   {"d26827f7fc163647a12c7340390aee963983eef2911e86575713020e1753c489", 5579807, 8331028, "0877cb77aeb1ac8e7c67dfe99a4396c6cce4cf969f8cce810202fa7c015c6e35"},
	"gen/jack":         {"b355786b0971f18f334a949b529f9d00bf6aae31bf0f11d0518bfa176ea3732d", 7510599, 18299034, "9c6e745d3616b1e29c5a240d87af8c80781438b8b6bd543894e052622f118dd3"},
	"gen/javac":        {"ac513474b5a431c9e51f07e8b309672b344b08a018c6d0268ec3c4e96b0c4787", 5828518, 10148779, "333d28be729ad33e855bea85684e11dcf003812b2475765159efa6d3999c318c"},
	"gen/jess":         {"215b1267a79586d363a745c9066a10b57af5c745c8fd9676b2a0203078d45354", 823699, 5722457, "63255509156a770c3a901740316c6e71158a15b86f8e9182cfa47055db9d2a18"},
	"mc/jack":          {"b355786b0971f18f334a949b529f9d00bf6aae31bf0f11d0518bfa176ea3732d", 7510599, 18123336, "9c6e745d3616b1e29c5a240d87af8c80781438b8b6bd543894e052622f118dd3"},
	"mc/javac":         {"ac513474b5a431c9e51f07e8b309672b344b08a018c6d0268ec3c4e96b0c4787", 5828518, 10041088, "333d28be729ad33e855bea85684e11dcf003812b2475765159efa6d3999c318c"},
	"mc/jess":          {"215b1267a79586d363a745c9066a10b57af5c745c8fd9676b2a0203078d45354", 823699, 5697062, "63255509156a770c3a901740316c6e71158a15b86f8e9182cfa47055db9d2a18"},
	"sampled/analyzer": {"7cf4c70e5a0cf6ccb2b0ff4db060db310de5fc3b1fa3f04c8aab3088c2aa9010", 10421291, 24982832, "2b2ca97d3c072024fee4e26bd3064d9c21ac476ed63ffd49b19583c051c6bca7"},
	"sampled/db":       {"ce2deca927e88a9668135ec878d4633d57cfa94f6f77cbcd893bdab284fc88a7", 4932045, 12505973, "bd7b0af801c2893686f42ec652d541099e88f5d67c268f9111a1fbc9bdf0f618"},
	"sampled/euler":    {"6a692be7685b58472b662dcd8369af6ae3d05fd8106198b3e081e6dc8b421028", 255274349, 255500916, "7920db4fc3af045b8a49c127e6aca65946b3f79bd660f80ec4795ccb2e2967e8"},
	"sampled/jack":     {"8a487ce06e074d256dc8d153ca45c13fe01397d225dc16d095fd7549199570aa", 7510599, 18123336, "9c6e745d3616b1e29c5a240d87af8c80781438b8b6bd543894e052622f118dd3"},
	"sampled/javac":    {"bb0fad17ccbf87ba60280b4e374b2380fcc2c44afc3f646b6315c77ef732607d", 5828518, 10041088, "333d28be729ad33e855bea85684e11dcf003812b2475765159efa6d3999c318c"},
	"sampled/jess":     {"95ef91cbb1067c9224c6d2e22452b951ce8b843b37ba07ecb328fb59c734fede", 823699, 5697062, "63255509156a770c3a901740316c6e71158a15b86f8e9182cfa47055db9d2a18"},
	"sampled/juru":     {"a431bf74b0f5efec92a5534ba9ca2168985bc9e1ee998b366fa8b8f14227cf1f", 3109968, 7996877, "e51a4c7ab7b0c916d3dbafcfb844feebd44ecb995697e478f6be170ba275207a"},
	"sampled/mc":       {"6699cd9c38959f8263cdf719bd79df8d0c8bc97b2a12929c17dff84d69a4f529", 16212414, 24866202, "b2cbd28b2eb411875e334c9ba9e5094222a9f450b18fa35450b0919231839c88"},
	"sampled/raytrace": {"00011ab8a9cb181d1eca271c826ae1ba391fbfba166fc6a3001e3cd4f5df7176", 5579807, 8331028, "0877cb77aeb1ac8e7c67dfe99a4396c6cce4cf969f8cce810202fa7c015c6e35"},
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
