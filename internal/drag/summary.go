package drag

import (
	"fmt"
	"math/big"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// Uint128 is an unsigned 128-bit integer. It encodes in JSON as a plain
// decimal number.
type Uint128 struct{ Hi, Lo uint64 }

func (u Uint128) add(v Uint128) Uint128 {
	lo, c := bits.Add64(u.Lo, v.Lo, 0)
	return Uint128{u.Hi + v.Hi + c, lo}
}

func (u Uint128) big() *big.Int {
	b := new(big.Int).SetUint64(u.Hi)
	return b.Lsh(b, 64).Or(b, new(big.Int).SetUint64(u.Lo))
}

// MarshalJSON implements json.Marshaler.
func (u Uint128) MarshalJSON() ([]byte, error) {
	if u.Hi == 0 {
		return strconv.AppendUint(nil, u.Lo, 10), nil
	}
	return []byte(u.big().String()), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (u *Uint128) UnmarshalJSON(data []byte) error {
	b, ok := new(big.Int).SetString(string(data), 10)
	if !ok || b.Sign() < 0 || b.BitLen() > 128 {
		return fmt.Errorf("drag: %q is not an unsigned 128-bit integer", data)
	}
	lo := new(big.Int).And(b, new(big.Int).SetUint64(^uint64(0)))
	*u = Uint128{new(big.Int).Rsh(b, 64).Uint64(), lo.Uint64()}
	return nil
}

// Moments are the exact moments of a group's drag times, over its
// objects whose drag time is positive (the ones Group.MeanDragTime and
// Group.StdDragTime describe): their number, the sum of their drag times
// and the sum of their squares.
type Moments struct {
	N     int64   `json:"n"`
	Sum   int64   `json:"s"`
	SumSq Uint128 `json:"q"`
}

func (m *Moments) add(x int64) {
	hi, lo := bits.Mul64(uint64(x), uint64(x))
	m.N++
	m.Sum += x
	m.SumSq = m.SumSq.add(Uint128{hi, lo})
}

func (m *Moments) merge(o Moments) {
	m.N += o.N
	m.Sum += o.Sum
	m.SumSq = m.SumSq.add(o.SumSq)
}

// Mean is the mean drag time, Σx/n. While Σx < 2^53 it equals, bit for
// bit, the sequential float sum Group.MeanDragTime is computed by.
func (m Moments) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return float64(m.Sum) / float64(m.N)
}

// HighVariance is the exact form of "the coefficient of variation of drag
// time exceeds 1": σ²/μ² > 1 with σ² = Σx²/n − μ² and μ = Σx/n is
// n·Σx² > 2·(Σx)², compared here in 192-bit integers.
func (m Moments) HighVariance() bool {
	if m.N == 0 {
		return false
	}
	n := uint64(m.N)
	h1, l0 := bits.Mul64(n, m.SumSq.Lo)
	h2, l1 := bits.Mul64(n, m.SumSq.Hi)
	w1, c := bits.Add64(h1, l1, 0)
	w2 := h2 + c
	sh, sl := bits.Mul64(uint64(m.Sum), uint64(m.Sum))
	r2, r1, r0 := sh>>63, sh<<1|sl>>63, sl<<1
	if w2 != r2 {
		return w2 > r2
	}
	if w1 != r1 {
		return w1 > r1
	}
	return l0 > r0
}

// SiteTotals is one nested-site group in additive form: the integer
// totals a cross-run site summary serves and the drag-time moments its
// pattern is classified from.
type SiteTotals struct {
	// Key is the canonical chain-suffix key (profile.ChainSuffixKey), the
	// identity groups of different runs merge by.
	Key string `json:"k"`
	// Desc is the rendered nested site.
	Desc      string `json:"d"`
	Count     int    `json:"c"`
	NeverUsed int    `json:"u"`
	Bytes     int64  `json:"b"`
	Drag      int64  `json:"g"`
	InUse     int64  `json:"i"`
	Moments
}

// Pattern classifies the group by the Section 3.4 rules under the default
// thresholds and the never-used window window. It agrees with the float
// classification of Report except within float rounding of cv = 1, where
// the exact test is the right one.
func (t *SiteTotals) Pattern(window int64) Pattern {
	g := Group{Count: t.Count, NeverUsed: t.NeverUsed, Drag: t.Drag, MeanDragTime: t.Mean()}
	return classifyWith(&g, t.HighVariance(), Options{NeverUsedWindow: window}.withDefaults(nil))
}

// Summary is a fold's nested-site groups in additive form. The summaries
// of mergeable runs (equal Shape) add: the sum of two summaries is the
// summary of a fold over both runs, whatever the order.
type Summary struct {
	Shape
	// Window is the never-used window of the analysis; patterns are
	// classified at it.
	Window int64 `json:"window"`
	// Groups are sorted by Key.
	Groups []SiteTotals `json:"groups"`
}

// Summary returns the report's nested-site groups in additive form. The
// report must come from an analysis under default thresholds (any
// never-used window).
func (r *Report) Summary() *Summary {
	s := &Summary{
		Shape:  Shape{SampleRate: r.SampleRate, Sites: r.sites},
		Window: r.Options.NeverUsedWindow,
		Groups: make([]SiteTotals, 0, len(r.ByNestedSite)),
	}
	for _, g := range r.ByNestedSite {
		s.Groups = append(s.Groups, SiteTotals{
			Key:       strings.TrimPrefix(g.Key, "chain:"),
			Desc:      g.Desc,
			Count:     g.Count,
			NeverUsed: g.NeverUsed,
			Bytes:     g.Bytes,
			Drag:      g.Drag,
			InUse:     g.InUse,
			Moments:   g.moments,
		})
	}
	sort.Slice(s.Groups, func(i, j int) bool { return s.Groups[i].Key < s.Groups[j].Key })
	return s
}

// Add folds o into s. The shapes must match (CheckShapes); s keeps its
// Window. Groups merge by key; when two runs render one key differently
// (their method tables differ), the smaller description wins, so the sum
// does not depend on the order of the runs. Add never writes to the
// groups of s or o, so either may be shared.
func (s *Summary) Add(o *Summary) {
	out := make([]SiteTotals, 0, len(s.Groups)+len(o.Groups))
	a, b := s.Groups, o.Groups
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].Key < b[0].Key:
			out, a = append(out, a[0]), a[1:]
		case len(a) == 0 || b[0].Key < a[0].Key:
			out, b = append(out, b[0]), b[1:]
		default:
			g := a[0]
			g.Desc = min(g.Desc, b[0].Desc)
			g.Count += b[0].Count
			g.NeverUsed += b[0].NeverUsed
			g.Bytes += b[0].Bytes
			g.Drag += b[0].Drag
			g.InUse += b[0].InUse
			g.Moments.merge(b[0].Moments)
			out, a, b = append(out, g), a[1:], b[1:]
		}
	}
	s.Groups = out
}
