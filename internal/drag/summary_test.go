package drag

import (
	"encoding/json"
	"math"
	"math/big"
	"reflect"
	"strings"
	"testing"

	"dragprof/internal/profile"
)

func momentsOf(xs ...int64) Moments {
	var m Moments
	for _, x := range xs {
		m.add(x)
	}
	return m
}

// TestHighVarianceBoundary: cv = 1 exactly is not high variance, under
// both the float rule and the exact one.
func TestHighVarianceBoundary(t *testing.T) {
	for _, c := range []struct {
		xs   []int64
		want bool
	}{
		{[]int64{7}, false},
		{[]int64{1, 1, 1, 1, 6}, false}, // n·Σx² = 2·(Σx)² = 200
		{[]int64{1, 1, 1, 1, 7}, true},
		{[]int64{5, 5, 5}, false},
	} {
		m := momentsOf(c.xs...)
		if got := m.HighVariance(); got != c.want {
			t.Errorf("%v: HighVariance = %v, want %v", c.xs, got, c.want)
		}
		fs := make([]float64, len(c.xs))
		for i, x := range c.xs {
			fs[i] = float64(x)
		}
		mean, std := meanStd(fs)
		if got := std/mean > 1; got != c.want {
			t.Errorf("%v: float cv %v > 1 = %v, want %v", c.xs, std/mean, got, c.want)
		}
	}
}

// TestHighVarianceMatchesBigInt checks the 192-bit comparison against
// math/big on moments whose products overflow 128 bits.
func TestHighVarianceMatchesBigInt(t *testing.T) {
	seed := uint64(99)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed
	}
	for i := 0; i < 10000; i++ {
		m := Moments{N: int64(next() >> (1 + i%63)), Sum: int64(next() >> (1 + i%60)), SumSq: Uint128{next() >> (i % 64), next()}}
		if m.N == 0 {
			continue
		}
		lhs := new(big.Int).Mul(big.NewInt(m.N), m.SumSq.big())
		rhs := new(big.Int).Mul(big.NewInt(m.Sum), big.NewInt(m.Sum))
		rhs.Lsh(rhs, 1)
		if want := lhs.Cmp(rhs) > 0; m.HighVariance() != want {
			t.Fatalf("%+v: HighVariance = %v, math/big says %v", m, !want, want)
		}
	}
}

func TestUint128JSONRoundTrip(t *testing.T) {
	for _, u := range []Uint128{{0, 0}, {0, math.MaxUint64}, {1, 0}, {math.MaxUint64, math.MaxUint64}, {12345, 678}} {
		data, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != u.big().String() {
			t.Fatalf("%+v encodes as %s, want %s", u, data, u.big())
		}
		var back Uint128
		if err := json.Unmarshal(data, &back); err != nil || back != u {
			t.Fatalf("%s decodes to %+v (%v), want %+v", data, back, err, u)
		}
	}
	for _, bad := range []string{"-1", "340282366920938463463374607431768211456", "1.5", `"7"`} {
		var u Uint128
		if err := json.Unmarshal([]byte(bad), &u); err == nil {
			t.Errorf("%s decoded to %+v, want an error", bad, u)
		}
	}
}

// splitProfile returns two runs of one build: p's tables, each with half
// of p's records.
func splitProfile(p *profile.Profile) (*profile.Profile, *profile.Profile) {
	a, b := *p, *p
	a.Records = p.Records[:len(p.Records)/2]
	b.Records = p.Records[len(p.Records)/2:]
	return &a, &b
}

// TestSummaryAddIsMergedFold: the sum of two runs' summaries, in either
// order, is the summary of their merged fold, and each merged group's
// exact classification and mean agree with the float ones.
func TestSummaryAddIsMergedFold(t *testing.T) {
	a, b := splitProfile(syntheticProfile(6000))
	merged := NewAccumulator(a, Options{})
	for _, r := range a.Records {
		merged.Add(r)
	}
	bAcc := NewAccumulator(b, Options{})
	for _, r := range b.Records {
		bAcc.Add(r)
	}
	merged.Merge(bAcc)
	rep := merged.Report()
	want := rep.Summary()

	sa, sb := Analyze(a, Options{}).Summary(), Analyze(b, Options{}).Summary()
	ab, ba := *sa, *sb
	ab.Add(sb)
	ba.Add(sa)
	ba.Window = sa.Window
	for _, got := range []Summary{ab, ba} {
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("summed summaries differ from the merged fold:\ngot  %+v\nwant %+v", got, *want)
		}
	}
	if want.Shape != (Shape{SampleRate: 1, Sites: len(a.Sites)}) || want.Window != a.GCInterval {
		t.Fatalf("summary shape %+v, window %d", want.Shape, want.Window)
	}

	byKey := map[string]*SiteTotals{}
	for i := range want.Groups {
		byKey[want.Groups[i].Key] = &want.Groups[i]
	}
	for _, g := range rep.ByNestedSite {
		st := byKey[strings.TrimPrefix(g.Key, "chain:")]
		if st == nil {
			t.Fatalf("group %s missing from the summary", g.Key)
		}
		if math.Float64bits(st.Mean()) != math.Float64bits(g.MeanDragTime) {
			t.Errorf("%s: exact mean %v, float mean %v", g.Desc, st.Mean(), g.MeanDragTime)
		}
		if p := st.Pattern(want.Window); p != g.Pattern {
			t.Errorf("%s: exact pattern %v, float pattern %v", g.Desc, p, g.Pattern)
		}
	}
}

// TestSummaryAddKeepsSmallerDesc: a key two runs render differently
// merges under the smaller description, whichever run is added first.
func TestSummaryAddKeepsSmallerDesc(t *testing.T) {
	x := &Summary{Groups: []SiteTotals{{Key: "1:2;", Desc: "b", Count: 1}}}
	y := &Summary{Groups: []SiteTotals{{Key: "1:2;", Desc: "a", Count: 2}, {Key: "3:4;", Desc: "c", Count: 3}}}
	xy, yx := *x, *y
	xy.Add(y)
	yx.Add(x)
	want := []SiteTotals{{Key: "1:2;", Desc: "a", Count: 3}, {Key: "3:4;", Desc: "c", Count: 3}}
	if !reflect.DeepEqual(xy.Groups, want) || !reflect.DeepEqual(yx.Groups, want) {
		t.Fatalf("x+y = %+v, y+x = %+v, want %+v", xy.Groups, yx.Groups, want)
	}
	if x.Groups[0].Desc != "b" || x.Groups[0].Count != 1 {
		t.Fatalf("Add wrote to its argument: %+v", x.Groups)
	}
}
