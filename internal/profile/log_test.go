package profile

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dragprof/internal/bytecode"
	"dragprof/internal/vm"
)

func sampleProfile() *Profile {
	return &Profile{
		Name:       "sample/original/x",
		FinalClock: 123456,
		GCInterval: DefaultGCInterval,
		ClassNames: []string{"Object", "String with \"quotes\""},
		MethodNames: []string{
			"Main.main", "Weird.\"name\"\nnewline",
		},
		Sites: []bytecode.Site{
			{ID: 0, Method: 0, Line: 12, What: "int[]", Desc: `Main.main:12 (new int[])`},
			{ID: 1, Method: -1, Line: 0, What: "NPE", Desc: "vm:<runtime>"},
		},
		ChainNodes: []vm.ChainNode{
			{Parent: -1, Method: 0, Line: 12},
			{Parent: 0, Method: 1, Line: 3},
		},
		Records: []*Record{
			{AllocID: 1, Class: -1, Array: true, Elem: bytecode.ElemInt,
				Size: 48, Site: 0, Chain: 1, Create: 100, LastUse: 200,
				LastUseChain: 0, LastUseKind: vm.UseArray, Uses: 3, Collect: 900},
			{AllocID: 2, Class: 1, Size: 16, Site: 1, Chain: -1,
				Create: 150, Collect: 123456, AtExit: true, Interned: true,
				LastUseChain: -1},
		},
	}
}

// textLog is a complete log in the line-oriented text format (v2) that
// earlier builds wrote. It carries no checksum, and no reader accepts it.
const textLog = `dragprof-log 2
name "x"
finalclock 900
gcinterval 102400
classes 1
"Object"
methods 1
"Main.main"
files 1
"main.mj"
sites 1
0 3 "Object" "Main.main:3 (new Object)"
chains 1
-1 0 3
records 1
1 0 0 16 0 0 100 200 0 1 2 900 0
`

func TestLogRoundTripExact(t *testing.T) {
	p := sampleProfile()
	var buf bytes.Buffer
	if err := WriteBinaryLog(&buf, p, BinaryOptions{}); err != nil {
		t.Fatalf("write: %v", err)
	}
	q, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if q.Name != p.Name || q.FinalClock != p.FinalClock || q.GCInterval != p.GCInterval {
		t.Errorf("header mismatch: %+v", q)
	}
	if !reflect.DeepEqual(q.ClassNames, p.ClassNames) {
		t.Errorf("classes: %q", q.ClassNames)
	}
	if !reflect.DeepEqual(q.MethodNames, p.MethodNames) {
		t.Errorf("methods: %q", q.MethodNames)
	}
	if !reflect.DeepEqual(q.Sites, p.Sites) {
		t.Errorf("sites: %+v", q.Sites)
	}
	if !reflect.DeepEqual(q.ChainNodes, p.ChainNodes) {
		t.Errorf("chains: %+v", q.ChainNodes)
	}
	if !reflect.DeepEqual(q.Records, p.Records) {
		t.Errorf("records differ:\n%+v\n%+v", q.Records, p.Records)
	}
}

func TestLogRecordRoundTripProperty(t *testing.T) {
	f := func(id uint32, class int16, size uint16, create, lastUse uint32, flags uint8) bool {
		r := &Record{
			AllocID:      uint64(id),
			Class:        int32(class),
			Size:         int64(size),
			Site:         0,
			Chain:        -1,
			Create:       int64(create),
			LastUse:      int64(lastUse),
			LastUseChain: -1,
			Collect:      int64(create) + int64(lastUse),
			Array:        flags&1 != 0,
			AtExit:       flags&2 != 0,
			Interned:     flags&4 != 0,
		}
		p := &Profile{Name: "q", Records: []*Record{r},
			Sites: []bytecode.Site{{ID: 0, Desc: "d", What: "w"}}}
		var buf bytes.Buffer
		if err := WriteBinaryLog(&buf, p, BinaryOptions{Compress: flags&8 != 0}); err != nil {
			return false
		}
		q, err := ReadLog(bytes.NewReader(buf.Bytes()))
		if err != nil || len(q.Records) != 1 {
			return false
		}
		return *q.Records[0] == *r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReadLogRejectsGarbage: input that is not a binary log fails both
// the strict reader and salvage; a text log is named as not binary.
func TestReadLogRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a log\n",
		"dragprof-log 99\n",
		"dragprof-log 1\nname \"x\"\nfinalclock notanumber\n",
		textLog,
	}
	for _, src := range cases {
		_, err := ReadLog(strings.NewReader(src))
		if err == nil {
			t.Errorf("no error for %q", src)
		}
		if strings.HasPrefix(src, "dragprof-log") && !strings.Contains(err.Error(), "not a dragprof binary log") {
			t.Errorf("text input %q: err = %v", src, err)
		}
		if _, _, err := SalvageLog(strings.NewReader(src)); err == nil {
			t.Errorf("salvage: no error for %q", src)
		}
	}
}

// TestReadLogTruncatedRecords: a log whose blocks hold fewer records than
// it declares fails with a located error that counts the records decoded,
// not a bare EOF.
func TestReadLogTruncatedRecords(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinaryLog(&buf, sampleProfile(), BinaryOptions{BlockRecords: 1}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	ends, err := BlockOffsets(full)
	if err != nil {
		t.Fatal(err)
	}
	// Each cut ends before the second block does, while the tables still
	// declare 2 records.
	for _, tc := range []struct {
		cut     int64
		decoded int
	}{{ends[0], 1}, {ends[1] - 1, 1}, {ends[0] - 1, 0}} {
		_, err := ReadLog(bytes.NewReader(full[:tc.cut]))
		var ce *CorruptLogError
		if !errors.As(err, &ce) {
			t.Fatalf("cut at %d: err = %v, want *CorruptLogError", tc.cut, err)
		}
		if ce.Records != tc.decoded || ce.Block != tc.decoded {
			t.Errorf("cut at %d: %d records decoded before block %d, want %d before block %d",
				tc.cut, ce.Records, ce.Block, tc.decoded, tc.decoded)
		}
	}
}

// TestReadLogRejectsGarbageSuffix: bytes after the last record block are
// an error, not silently ignored, in raw and gzipped logs alike; a v4 log
// has no slack for even a trailing newline.
func TestReadLogRejectsGarbageSuffix(t *testing.T) {
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteBinaryLog(&buf, sampleProfile(), BinaryOptions{Compress: compress}); err != nil {
			t.Fatal(err)
		}
		for _, suffix := range []string{"1 2 3 4 5 6 7 8 9 10 11 12 13\n", "\n\n"} {
			_, err := ReadLog(bytes.NewReader(append(buf.Bytes(), suffix...)))
			if err == nil || !strings.Contains(err.Error(), "trailing") {
				t.Errorf("compress=%v suffix %q: err = %v", compress, suffix, err)
			}
		}
	}
}

func TestRecordIntervalIdentities(t *testing.T) {
	// Figure 1's invariant: in-use + drag = lifetime, with never-used
	// objects dragging for their entire lifetime.
	used := &Record{Create: 100, LastUse: 300, Collect: 700, Size: 8}
	if used.InUseTime() != 200 || used.DragTime() != 400 || used.LifeTime() != 600 {
		t.Errorf("used: inuse=%d drag=%d life=%d", used.InUseTime(), used.DragTime(), used.LifeTime())
	}
	if used.Drag() != 8*400 {
		t.Errorf("drag product = %d", used.Drag())
	}
	never := &Record{Create: 100, Collect: 700, Size: 8, LastUseChain: -1}
	if never.Used() || never.InUseTime() != 0 || never.DragTime() != 600 {
		t.Errorf("never: used=%v inuse=%d drag=%d", never.Used(), never.InUseTime(), never.DragTime())
	}
}

func TestReportedExcludesInterned(t *testing.T) {
	p := sampleProfile()
	reported := p.Reported()
	if len(reported) != 1 || reported[0].AllocID != 1 {
		t.Errorf("reported = %+v", reported)
	}
}

func TestChainDesc(t *testing.T) {
	p := sampleProfile()
	full := p.ChainDesc(1, 0)
	if full != "Main.main:12 > Weird.\"name\"\nnewline:3" {
		t.Errorf("full chain = %q", full)
	}
	if got := p.ChainDesc(1, 1); !strings.Contains(got, ":3") || strings.Contains(got, "Main.main") {
		t.Errorf("depth-1 chain = %q", got)
	}
	if p.ChainDesc(-1, 0) != "<top>" {
		t.Errorf("empty chain = %q", p.ChainDesc(-1, 0))
	}
}
