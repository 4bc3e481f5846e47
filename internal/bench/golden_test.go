package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"dragprof/internal/drag"
	"dragprof/internal/profile"
)

// Golden canonical dumps: SHA-256 of drag.Report.CanonicalDump for fixed
// workload runs. The differential suites compare two outputs of the same
// analyzer; these hashes pin the analyzer's output itself, so a rewrite of
// the fold that changes one byte of any report fails here even when every
// pipeline agrees with every other. A deliberate change to the report
// contract must update the table and say so.
var goldenDumps = map[string]string{
	"anchors/analyzer":               "d37c37866e21d113ab629723eae8fc2a25c87ec6b0893daca9d8d4e8431a780c",
	"anchors/db":                     "25223f1fbe3b45325fe3f8bb7aa0f06c4ad0329a0ab34a34445b5ff07d78cdb4",
	"anchors/euler":                  "ece5d28e366e5ac16a61a43eee58a3bd52d1cbbb7084123ea11b9e51b89a53ae",
	"anchors/jack":                   "444f43c4ebe459311e8992721c3a451be86deeb64fd4289a020fac018ef6876c",
	"anchors/javac":                  "0d29df4b2b57238a0b9f9ed9d0ba25f7bc7f759c30e910aa4e4005f551fce7e8",
	"anchors/jess":                   "d18f5450a8e441baa8d78fbbfe523dcb472b05c4a91f984d3796b39c6fa99e9c",
	"anchors/juru":                   "f29822d9563e10256b36a022ef5f56f903a798a5928810f829f53d7757d81f64",
	"anchors/mc":                     "6d7b019c34bef47ee9fc4b2c03f8e0b857bed6d5a346bef88017fe4aad98fe4c",
	"anchors/raytrace":               "6cb34d26335d4f6b70cf3369c8baef5dffe321f4336be0dbb29d7e69c5e72582",
	"exact/analyzer/nest1":           "81c77fbcc08f73e5c29398496bd64829ad1d48178c84bcdbc9620ea865893584",
	"exact/analyzer/nest4":           "459c239009d0f00e4c8b6457cb86098485ebe3087c31ff7d33479d15dee35cf2",
	"exact/analyzer/nest64":          "e2042cb050a7e8aeb9f01a2084ceefbfc921945f02172066b15874ce609eb059",
	"exact/db/nest1":                 "d719634bb1cc995557bdafab47492538e5e9fc3b0fa4a4531e99a995d34b20d9",
	"exact/db/nest4":                 "ad1f9f34c7b2a48fc5d2b51b5252712971de13d4c6454a686ce28928cd0aadb1",
	"exact/db/nest64":                "ddba41d6bead9b39371835eecded790b9970934b06b542b173e5b0f549c1658b",
	"exact/euler/nest1":              "812bfbe3be2b3814e8a805781ee72229ef7ac055a7d707cacb14021fdd81a8d4",
	"exact/euler/nest4":              "7ae906d09cd040d2d6d48bf3218b6924c2c58e3c77d89f648c15b545d536ec1e",
	"exact/euler/nest64":             "e409d24d019092b5d90db3982c65a916e7121103a20f807748be3a273e9c1909",
	"exact/jack/nest1":               "fff3df9044866ba93516c8df1854b3afaeca6a68eba3e6cddaca43f1ca541c2a",
	"exact/jack/nest4":               "669bf038143ee21ab829895f1c84ddf8a78471b66f64f31226b113d11ec9c13d",
	"exact/jack/nest64":              "3bca24b293dc71dd08ec71f7c8065e1070656d253fd8e6be7e2fb5fdf509a050",
	"exact/javac/nest1":              "0bd86dbe84deba316144f26cfda983042a69c7a0f5223fd0101911db53838894",
	"exact/javac/nest4":              "efc3e853f84514058dfef5ee070742b53b84201056e3228b80f6d079264adbe9",
	"exact/javac/nest64":             "ddd3075869e397f09847d708aa0f2bdb0a7f4f4c1d7e8b85943e826381421a1e",
	"exact/jess/nest1":               "fcb865f8e9b094d40bb01ac0196d1a11b9dd1c9c56805802fb74db324761ce45",
	"exact/jess/nest4":               "6bc8a5e18d64038246736d39f73e92e337018681ff3f727fef84f9bfa17ca56a",
	"exact/jess/nest64":              "5825f9f4ad839a29e904e47a873ef63328a5e728eab4f3c0dadea6298d04f1fc",
	"exact/juru/nest1":               "f551058565550a69a1f982d8370e98d496badeeb27b7a5a1f3d216f701f9f639",
	"exact/juru/nest4":               "cb5e393d5b70238c08428bde69940d1813e4e26daf06bf651596ba1e48b31647",
	"exact/juru/nest64":              "fae3ceb7771899cb467ddca9f0e30116b1f286e4b320d10ccbd3d34703c48024",
	"exact/mc/nest1":                 "bdf602d284dad9b978afe798dc3db2146241845d524b07743cadb9519daaa7dd",
	"exact/mc/nest4":                 "adc8fd079c9134df6f7511636053dc071519b21ea3d33eabedb7db9f1e1319d8",
	"exact/mc/nest64":                "3c07105abb094af87aaff8f23742e27e8d6c2f61bef59803fc8689e45f511a30",
	"exact/raytrace/nest1":           "d6c98341a85ec6d964ef02634de4d9c8a99e076df18e7c9ce5bd7e760fe1e054",
	"exact/raytrace/nest4":           "7e9520681ad3bd1c0a3644027c45f763e0f769da5b8e3564a6d291e0233f8a3d",
	"exact/raytrace/nest64":          "af0636d865ece2b91329285175a0edb1ff6b7bdedc3458a6673cd13ea5792110",
	"merge/jack-sampled-seed1+seed2": "0b326d7e6a4eb49e36ed9c46e7f9f025c9d43d941e4437feffea01d030144b0b",
	"merge/javac-seed7+seed8":        "ece29f03ea6193b0880206d1ad08f7c17726ed80912a8868247511d9ec457b59",
	"sampled/analyzer":               "ff828d36bc19ac9354ac68041200fc01c6e1fca2df441b61bb61358d5389844e",
	"sampled/db":                     "a1101795a947d2b45dce4c60310e0f88923fb64b6f9a59cda3141e59abafb87e",
	"sampled/euler":                  "f4e55c3c0966a2ccef7109a22d38f14e3999b2e5c64c94a6bfe526dacc12e69c",
	"sampled/jack":                   "38d6183b997f629b533a87ca5222d8c854fb8d51d12ec0f37dcc88f3b628817a",
	"sampled/javac":                  "30764b469ad723ba79770a512c88ae55a4f5087032ae3133cd49c31f8e912deb",
	"sampled/jess":                   "8c33ac32ff38086b4a4a82a015469aea638b4da9284b92021ae8842139ebd41e",
	"sampled/juru":                   "1d89440d04201636aa688b252cbf3514762e62bb970824276484d07be383ea36",
	"sampled/mc":                     "3febde9e64f57392efca00c6d65c2aacb8aa03986fe35f94930833a28cdad7c7",
	"sampled/raytrace":               "b1206aa4ffaae8da38b2588ae5e5b7ed0201ddf19f21a839ea562773c1a21664",
}

// goldenSampleRate and goldenSampleSeed fix the sampled runs.
const (
	goldenSampleRate = 1e-3
	goldenSampleSeed = 1
)

func dumpHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// withParam returns a copy of b whose original input has one parameter
// changed (a second build-identical run on a different input).
func withParam(b *Benchmark, key string, v int) *Benchmark {
	c := *b
	c.OrigParams = Params{}
	for k, x := range b.OrigParams {
		c.OrigParams[k] = x
	}
	c.OrigParams[key] = v
	return &c
}

func goldenRun(t *testing.T, b *Benchmark, cfg RunConfig) *profile.Profile {
	t.Helper()
	r, err := Run(b, Original, OriginalInput, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.Profile
}

// mergedDump folds the profiles into one accumulator in order, as the
// store's compactor and draganalyze's multi-log mode do.
func mergedDump(ps ...*profile.Profile) []byte {
	var acc *drag.Accumulator
	for _, p := range ps {
		next := drag.NewAccumulator(p, drag.Options{})
		for _, r := range p.Records {
			next.Add(r)
		}
		if acc == nil {
			acc = next
			continue
		}
		acc.Merge(next)
	}
	return acc.Report().CanonicalDump()
}

// anchorDump renders AnchorGroups through the canonical group dump.
func anchorDump(p *profile.Profile) []byte {
	rep := &drag.Report{Name: p.Name, BySite: drag.AnchorGroups(p, drag.Options{})}
	return rep.CanonicalDump()
}

func TestGoldenCanonicalDumps(t *testing.T) {
	got := map[string]string{}
	for _, name := range Names() {
		p := diffProfile(t, name)
		for _, depth := range []int{1, 4, 64} {
			rep := drag.Analyze(p, drag.Options{NestDepth: depth})
			got[fmt.Sprintf("exact/%s/nest%d", name, depth)] = dumpHash(rep.CanonicalDump())
		}
		got["anchors/"+name] = dumpHash(anchorDump(p))

		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sp := goldenRun(t, b, RunConfig{SampleRate: goldenSampleRate, SampleSeed: goldenSampleSeed})
		got["sampled/"+name] = dumpHash(drag.Analyze(sp, drag.Options{}).CanonicalDump())
	}

	javac, err := ByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	j2 := goldenRun(t, withParam(javac, "SEED", 8), RunConfig{})
	got["merge/javac-seed7+seed8"] = dumpHash(mergedDump(diffProfile(t, "javac"), j2))

	jack, err := ByName("jack")
	if err != nil {
		t.Fatal(err)
	}
	s1 := goldenRun(t, jack, RunConfig{SampleRate: 0.01, SampleSeed: 1})
	s2 := goldenRun(t, jack, RunConfig{SampleRate: 0.01, SampleSeed: 2})
	if len(s1.ChainNodes) == len(s2.ChainNodes) {
		// The merge is meant to cover runs whose chain tables differ.
		t.Errorf("jack sampled runs intern the same number of chain nodes (%d)", len(s1.ChainNodes))
	}
	got["merge/jack-sampled-seed1+seed2"] = dumpHash(mergedDump(s1, s2))

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want, ok := goldenDumps[k]
		switch {
		case !ok:
			t.Errorf("no golden for %s: got %q", k, got[k])
		case want != got[k]:
			t.Errorf("%s: canonical dump hash %s, golden %s", k, got[k], want)
		}
	}
	for k := range goldenDumps {
		if _, ok := got[k]; !ok {
			t.Errorf("golden %s was not computed", k)
		}
	}
}
