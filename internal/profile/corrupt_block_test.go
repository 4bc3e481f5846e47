package profile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"dragprof/internal/vm"
)

// splitPayload parses the block that starts at data[start:] and returns its
// record count and its payload split at the section boundary.
func splitPayload(t *testing.T, data []byte, start int64) (count uint64, shape, times []byte) {
	t.Helper()
	b := data[start:]
	count, n := binary.Uvarint(b)
	b = b[n:]
	plen, n := binary.Uvarint(b)
	payload := b[n : n+int(plen)]
	shapeLen, n := binary.Uvarint(payload)
	return count, payload[n : n+int(shapeLen)], payload[n+int(shapeLen):]
}

// payloadOf joins a shape-section length varint and the two sections.
func payloadOf(shapeLen int, shape, times []byte) []byte {
	p := binary.AppendUvarint(nil, uint64(shapeLen))
	p = append(p, shape...)
	return append(p, times...)
}

// withBlock returns data with the block in data[start:end] replaced by a
// block of count records carrying payload, under a checksum that matches,
// so that only the payload decoder can find the damage.
func withBlock(data []byte, start, end int64, count uint64, payload []byte) []byte {
	blk := binary.AppendUvarint(nil, count)
	blk = binary.AppendUvarint(blk, uint64(len(payload)))
	blk = append(blk, payload...)
	blk = binary.LittleEndian.AppendUint32(blk, crc32.Checksum(blk, castagnoli))
	out := append([]byte(nil), data[:start]...)
	out = append(out, blk...)
	return append(out, data[end:]...)
}

// TestCorruptBlockPayloads damages one block's v4 payload in each way the
// decoder must catch, behind a valid block checksum: ReadLog must fail with
// a *CorruptLogError naming that block, and SalvageLog must keep every
// block before it.
func TestCorruptBlockPayloads(t *testing.T) {
	const n, block, bad = 600, 128, 2
	p, data := salvageable(t, n, block, false)
	ends, err := BlockOffsets(data)
	if err != nil {
		t.Fatal(err)
	}
	start, end := ends[bad-1], ends[bad]
	count, shape, times := splitPayload(t, data, start)
	cat := func(a, b []byte) []byte { return append(append([]byte(nil), a...), b...) }

	for _, tc := range []struct {
		name    string
		count   uint64
		payload []byte
		want    string // the reason's distinctive words
	}{
		{"shape-length-past-payload", count,
			payloadOf(len(shape)+len(times)+1, shape, times), "shape-section length overruns"},
		{"shape-section-ends-mid-record", count,
			payloadOf(len(shape)-3, shape[:len(shape)-3], times), "corrupt shape section"},
		{"time-section-ends-mid-record", count,
			payloadOf(len(shape), shape, times[:len(times)-2]), "corrupt time section"},
		{"trailing-bytes-in-shape-section", count,
			payloadOf(len(shape)+1, cat(shape, []byte{0}), times), "trailing bytes in the shape section"},
		{"trailing-bytes-in-time-section", count,
			payloadOf(len(shape), shape, cat(times, []byte{0})), "trailing bytes in the time section"},
		{"unknown-flag-bits", count,
			payloadOf(len(shape), cat([]byte{shape[0] | 0x40}, shape[1:]), times), "corrupt shape section"},
		{"payload-below-min-record-bytes", count,
			make([]byte, count*minRecordBytes-1), "payload length"},
		{"payload-above-max-record-bytes", 1,
			make([]byte, maxPayloadBytes(1)+1), "payload length"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			damaged := withBlock(data, start, end, tc.count, tc.payload)
			_, rerr := ReadLog(bytes.NewReader(damaged))
			var ce *CorruptLogError
			if !errors.As(rerr, &ce) {
				t.Fatalf("ReadLog error %v (%T), want *CorruptLogError", rerr, rerr)
			}
			if ce.Block != bad || !strings.Contains(rerr.Error(), fmt.Sprintf("block %d", bad)) {
				t.Errorf("error names block %d, want %d: %v", ce.Block, bad, rerr)
			}
			if !strings.Contains(ce.Reason, tc.want) {
				t.Errorf("reason %q lacks %q", ce.Reason, tc.want)
			}
			if ce.Offset < start || ce.Offset > end+1 {
				t.Errorf("fault offset %d outside the damaged block [%d, %d]", ce.Offset, start, end)
			}

			q, sr, err := SalvageLog(bytes.NewReader(damaged))
			if err != nil {
				t.Fatal(err)
			}
			if sr.BlocksRecovered != bad || sr.BadBlock != bad || len(q.Records) != bad*block {
				t.Fatalf("salvage kept %d blocks, %d records, fault in block %d; want %d, %d, %d",
					sr.BlocksRecovered, len(q.Records), sr.BadBlock, bad, bad*block, bad)
			}
			for i, r := range q.Records {
				if *r != *p.Records[i] {
					t.Fatalf("salvaged record %d differs", i)
				}
			}
		})
	}
}

// TestPayloadBoundsHold checks that minRecordBytes and maxRecordBytes, with
// the shape-section length varint, bound every payload the writer emits:
// records of all-zero fields meet the lower bound exactly, and records at
// the extremes of every field stay under the upper one and round-trip.
func TestPayloadBoundsHold(t *testing.T) {
	zero := &Record{}
	extreme := &Record{
		AllocID: math.MaxUint64, Class: math.MinInt32, Elem: math.MinInt32,
		Size: math.MinInt64, Site: math.MaxInt32, Chain: math.MinInt32,
		Create: math.MaxInt64, LastUse: math.MinInt64, Collect: math.MinInt64,
		LastUseChain: math.MinInt32, LastUseKind: vm.UseKind(255), Uses: math.MinInt64,
		Array: true, AtExit: true, Interned: true,
	}
	var e blockEncoder
	for _, nrec := range []int{1, 14, 15, 1000} {
		for _, r := range []*Record{zero, extreme} {
			recs := make([]*Record, nrec)
			for i := range recs {
				recs[i] = r
			}
			e.encode(recs)
			plen := uint64(uvarintLen(uint64(len(e.shape))) + len(e.shape) + len(e.times))
			lo, hi := minPayloadBytes(uint64(nrec)), maxPayloadBytes(uint64(nrec))
			if plen < lo || plen > hi {
				t.Errorf("%d records like %+v: payload %d bytes outside [%d, %d]", nrec, *r, plen, lo, hi)
			}
			if r == zero && nrec <= 14 && plen != lo {
				t.Errorf("%d zero records: payload %d bytes, want the lower bound %d", nrec, plen, lo)
			}
		}
	}

	p := &Profile{Name: "extremes", Records: []*Record{zero, extreme, zero}}
	var buf bytes.Buffer
	if err := WriteBinaryLog(&buf, p, BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	q, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Records, q.Records) {
		t.Errorf("extreme records did not round-trip:\n got %+v\nwant %+v", q.Records, p.Records)
	}
}
