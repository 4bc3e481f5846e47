package profile

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"dragprof/internal/bytecode"
	"dragprof/internal/vm"
)

// manyRecordProfile builds a profile large enough to span several blocks.
func manyRecordProfile(n, block int) *Profile {
	p := &Profile{
		Name:        "many",
		FinalClock:  int64(n) * 64,
		GCInterval:  DefaultGCInterval,
		ClassNames:  []string{"Object", "Vector"},
		MethodNames: []string{"Main.main", "Vector.add"},
		MethodFiles: []string{"main.mj", "collections.mj"},
		Sites: []bytecode.Site{
			{ID: 0, Method: 0, Line: 3, What: "Vector", Desc: "Main.main:3 (new Vector)"},
			{ID: 1, Method: 1, Line: 9, What: "Object[]", Desc: "Vector.add:9 (new Object[])"},
		},
		ChainNodes: []vm.ChainNode{
			{Parent: -1, Method: 0, Line: 3},
			{Parent: 0, Method: 1, Line: 9},
		},
	}
	for i := 0; i < n; i++ {
		r := &Record{
			AllocID: uint64(i + 1),
			Class:   int32(i % 2),
			Size:    int64(16 + 8*(i%5)),
			Site:    int32(i % 2),
			Chain:   int32(i % 2),
			Create:  int64(i) * 64,
			Collect: int64(i)*64 + 4096,
		}
		if i%3 != 0 {
			r.LastUse = r.Create + 128
			r.LastUseChain = int32(i % 2)
			r.LastUseKind = vm.UseKind(1)
			r.Uses = int64(i % 7)
		} else {
			r.LastUseChain = -1
		}
		if i%11 == 0 {
			r.Array = true
			r.Elem = bytecode.ElemInt
			r.Class = -1
		}
		if i == n-1 {
			r.AtExit = true
		}
		p.Records = append(p.Records, r)
	}
	return p
}

func TestBinaryLogRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Profile
		opts BinaryOptions
	}{
		{"sample", sampleProfile(), BinaryOptions{}},
		{"sample-gzip", sampleProfile(), BinaryOptions{Compress: true}},
		{"multiblock", manyRecordProfile(10000, 0), BinaryOptions{BlockRecords: 512}},
		{"multiblock-gzip", manyRecordProfile(10000, 0), BinaryOptions{BlockRecords: 512, Compress: true}},
		{"single-record-blocks", manyRecordProfile(17, 0), BinaryOptions{BlockRecords: 1}},
		{"empty", &Profile{Name: "empty"}, BinaryOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteBinaryLog(&buf, tc.p, tc.opts); err != nil {
				t.Fatalf("write: %v", err)
			}
			q, err := ReadLog(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if !reflect.DeepEqual(tc.p, q) {
				t.Errorf("round trip mismatch:\nwrote %+v\nread  %+v", tc.p, q)
			}
		})
	}
}

// TestBinaryVsTextEquivalence: the same profile read back from both
// formats must be field-identical.
func TestBinaryVsTextEquivalence(t *testing.T) {
	p := manyRecordProfile(5000, 0)
	var text, bin bytes.Buffer
	if err := WriteLog(&text, p); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryLog(&bin, p, BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	if err := WriteBinaryLog(&gz, p, BinaryOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadLog(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadLog(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromText, fromBin) {
		t.Error("text and binary readers disagree")
	}
	if bin.Len()*2 > text.Len() {
		t.Errorf("raw binary log %d bytes, text %d bytes: less than 2x smaller", bin.Len(), text.Len())
	}
	if gz.Len()*3 > text.Len() {
		t.Errorf("compressed binary log %d bytes, text %d bytes: less than 3x smaller", gz.Len(), text.Len())
	}
}

func TestLogStreamBlocks(t *testing.T) {
	p := manyRecordProfile(10000, 0)
	var buf bytes.Buffer
	if err := WriteBinaryLog(&buf, p, BinaryOptions{BlockRecords: 1024}); err != nil {
		t.Fatal(err)
	}
	s, err := OpenLogStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalRecords() != len(p.Records) {
		t.Fatalf("TotalRecords = %d, want %d", s.TotalRecords(), len(p.Records))
	}
	blocks := 0
	seen := 0
	for {
		blk, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if blk.Index != blocks {
			t.Fatalf("block index %d, want %d", blk.Index, blocks)
		}
		recs, err := blk.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != blk.Count {
			t.Fatalf("block %d decoded %d records, header says %d", blk.Index, len(recs), blk.Count)
		}
		for i, r := range recs {
			if *r != *p.Records[seen+i] {
				t.Fatalf("record %d differs: %+v vs %+v", seen+i, *r, *p.Records[seen+i])
			}
		}
		seen += len(recs)
		blocks++
	}
	if seen != len(p.Records) || blocks != 10 {
		t.Errorf("streamed %d records in %d blocks, want %d in 10", seen, blocks, len(p.Records))
	}
}

func TestBinaryLogRejectsCorrupt(t *testing.T) {
	p := manyRecordProfile(500, 0)
	var buf bytes.Buffer
	if err := WriteBinaryLog(&buf, p, BinaryOptions{BlockRecords: 128}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = 9
		if _, err := ReadLog(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "version") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("unknown-flags", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[5] = 0x80
		if _, err := ReadLog(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "flags") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("missing-crc-flag", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[5] &^= binFlagCRC
		if _, err := ReadLog(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "checksum flag") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{7, len(good) / 2, len(good) - 1} {
			if _, err := ReadLog(bytes.NewReader(good[:cut])); err == nil {
				t.Errorf("no error at cut %d", cut)
			}
		}
	})
	t.Run("trailing-data", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 'x')
		if _, err := ReadLog(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "trailing") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("trailing-data-gzip", func(t *testing.T) {
		var gz bytes.Buffer
		if err := WriteBinaryLog(&gz, p, BinaryOptions{Compress: true}); err != nil {
			t.Fatal(err)
		}
		bad := append(gz.Bytes(), "garbage"...)
		if _, err := ReadLog(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "trailing") {
			t.Errorf("err = %v", err)
		}
	})
}

// errAfterWriter accepts limit bytes, then fails every write.
type errAfterWriter struct {
	limit int64
	err   error
}

func (w *errAfterWriter) Write(p []byte) (int, error) {
	if w.limit <= 0 {
		return 0, w.err
	}
	if int64(len(p)) <= w.limit {
		w.limit -= int64(len(p))
		return len(p), nil
	}
	n := w.limit
	w.limit = 0
	return int(n), w.err
}

// TestWriteBinaryLogPropagatesWriteErrors: a failure at any point of the
// write — including one surfacing only in gzip.Writer.Close or the final
// buffered flush — must reach the caller, never vanish. Regression test
// for the silent gzip-close error drop.
func TestWriteBinaryLogPropagatesWriteErrors(t *testing.T) {
	p := manyRecordProfile(5000, 0)
	sentinel := errors.New("disk full")
	for _, compress := range []bool{false, true} {
		var full bytes.Buffer
		if err := WriteBinaryLog(&full, p, BinaryOptions{Compress: compress}); err != nil {
			t.Fatal(err)
		}
		size := int64(full.Len())
		// size-1 matters most: with gzip the underlying write happens at
		// Close time, so a dropped Close error would pass silently.
		for _, limit := range []int64{0, 1, size / 2, size - 1} {
			err := WriteBinaryLog(&errAfterWriter{limit: limit, err: sentinel}, p,
				BinaryOptions{Compress: compress})
			if !errors.Is(err, sentinel) {
				t.Errorf("compress=%v limit=%d: err = %v, want sentinel", compress, limit, err)
			}
		}
	}
}
