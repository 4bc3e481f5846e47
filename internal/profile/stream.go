package profile

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"dragprof/internal/bytecode"
	"dragprof/internal/vm"
)

// CorruptLogError reports exactly where decoding a drag log failed: the
// byte offset of the failure, the record-block index, and how many records
// had been fully decoded before it. ReadLog and the streaming reader wrap
// every record-section failure in it; SalvageLog turns it into a
// SalvageReport.
type CorruptLogError struct {
	// Offset is the byte offset of the failure. For raw (uncompressed)
	// binary logs and text logs this is the absolute file offset; for
	// gzipped binary logs it is the offset into the decompressed body
	// (the compressed file offset of a fault inside a deflate stream is
	// not recoverable).
	Offset int64
	// Block is the record-block index the failure occurred in, or -1 when
	// the header or tables failed before the record section.
	Block int
	// Records counts the records fully decoded before the failure.
	Records int
	// Reason is the human-readable failure description.
	Reason string
	// Err is the underlying cause, if any.
	Err error
}

func (e *CorruptLogError) Error() string {
	s := e.Reason
	if e.Block >= 0 {
		s += fmt.Sprintf(" (byte offset %d, block %d, %d records decoded)", e.Offset, e.Block, e.Records)
	} else {
		s += fmt.Sprintf(" (byte offset %d)", e.Offset)
	}
	return s
}

func (e *CorruptLogError) Unwrap() error { return e.Err }

// LogStream is the streaming, format-agnostic reader over a drag log: the
// header and tables are parsed eagerly, the record section is surfaced as
// a sequence of blocks whose decoding the caller may fan out over CPUs.
// Nothing materializes the full record slice unless the caller collects it.
type LogStream struct {
	p           *Profile
	total       int
	blocks      int
	idx         int
	format      string
	compressed  bool
	checkpoints int
	next        func() (*Block, error)
}

// Profile returns the tables-only profile (Records stays empty; blocks
// append to it only if the caller does so).
func (s *LogStream) Profile() *Profile { return s.p }

// TotalRecords is the record count the log declares.
func (s *LogStream) TotalRecords() int { return s.total }

// TotalBlocks is the record-block count the log declares.
func (s *LogStream) TotalBlocks() int { return s.blocks }

// Format names the detected log format: "binary" or "text".
func (s *LogStream) Format() string { return s.format }

// Compressed reports whether the binary body is gzipped.
func (s *LogStream) Compressed() bool { return s.compressed }

// Checkpoints counts the checkpoint frames verified so far.
func (s *LogStream) Checkpoints() int { return s.checkpoints }

// Next returns the next record block, or io.EOF after the last one. The
// final Next also verifies the declared record count and rejects trailing
// garbage.
func (s *LogStream) Next() (*Block, error) { return s.next() }

// Block is one run of consecutive trailer records. Decode is independent
// of every other block and safe to call from any goroutine.
type Block struct {
	// Index is the block's position in the log (0-based).
	Index int
	// Count is the number of records the block holds.
	Count  int
	decode func() ([]*Record, error)
}

// Decode parses the block's records.
func (b *Block) Decode() ([]*Record, error) { return b.decode() }

// OpenLogStream auto-detects the log format (binary v3 magic vs text
// header) and returns a streaming reader.
func OpenLogStream(r io.Reader) (*LogStream, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if peek, err := br.Peek(len(binMagic)); err == nil && bytes.Equal(peek, binMagic[:]) {
		return openBinaryStream(br)
	}
	return openTextStream(br)
}

// ReadLog parses a complete profile from either log format, auto-detected.
// Failures in the record section are reported as *CorruptLogError carrying
// the byte offset and block index of the fault; SalvageLog recovers the
// intact prefix instead of failing.
func ReadLog(r io.Reader) (*Profile, error) {
	s, err := OpenLogStream(r)
	if err != nil {
		return nil, err
	}
	p := s.Profile()
	for {
		blk, err := s.Next()
		if err == io.EOF {
			return p, nil
		}
		if err != nil {
			return nil, err
		}
		recs, err := blk.Decode()
		if err != nil {
			return nil, err
		}
		p.Records = append(p.Records, recs...)
	}
}

// ---- binary stream ----

type binReader struct {
	r *bufio.Reader
	// off counts bytes consumed from the (decompressed) body.
	off        int64
	compressed bool
	// crc is the running CRC32C of everything read since it was last
	// reset, footers excluded.
	crc uint32
}

// offset is the error-reporting byte offset: absolute file offset for raw
// logs (body offset plus the 6-byte header), decompressed-body offset for
// gzipped ones.
func (d *binReader) offset() int64 {
	if d.compressed {
		return d.off
	}
	return d.off + int64(len(binMagic)) + 2
}

func (d *binReader) readByte() (byte, error) {
	b, err := d.r.ReadByte()
	if err != nil {
		return 0, err
	}
	d.off++
	d.crc = crc32.Update(d.crc, castagnoli, []byte{b})
	return b, nil
}

func (d *binReader) readFull(p []byte) error {
	n, err := io.ReadFull(d.r, p)
	d.off += int64(n)
	d.crc = crc32.Update(d.crc, castagnoli, p[:n])
	return err
}

func (d *binReader) uvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := d.readByte()
		if err != nil {
			return 0, noEOF(err)
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("varint overflows 64 bits")
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("varint overflows 64 bits")
}

func (d *binReader) zig() (int64, error) {
	v, err := d.uvarint()
	return unzigzag(v), err
}

// storedCRC reads a 4-byte little-endian CRC footer without hashing it.
func (d *binReader) storedCRC() (uint32, error) {
	var b [4]byte
	n, err := io.ReadFull(d.r, b[:])
	d.off += int64(n)
	if err != nil {
		return 0, noEOF(err)
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (d *binReader) count(what string) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, fmt.Errorf("profile: binary log: reading %s count: %w", what, err)
	}
	if v > maxTableEntries {
		return 0, fmt.Errorf("profile: binary log: implausible %s count %d", what, v)
	}
	return int(v), nil
}

func (d *binReader) str(what string) (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", fmt.Errorf("profile: binary log: reading %s: %w", what, err)
	}
	if n > maxStringBytes {
		return "", fmt.Errorf("profile: binary log: implausible %s length %d", what, n)
	}
	buf := make([]byte, n)
	if err := d.readFull(buf); err != nil {
		return "", fmt.Errorf("profile: binary log: reading %s: %w", what, noEOF(err))
	}
	return string(buf), nil
}

func (d *binReader) strs(what string) ([]string, error) {
	n, err := d.count(what)
	if err != nil {
		return nil, err
	}
	var out []string
	for i := 0; i < n; i++ {
		s, err := d.str(what)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// corruptAt wraps a record-section failure with its location.
func corruptAt(offset int64, block, records int, cause error, format string, args ...any) *CorruptLogError {
	return &CorruptLogError{
		Offset:  offset,
		Block:   block,
		Records: records,
		Reason:  fmt.Sprintf(format, args...),
		Err:     cause,
	}
}

func openBinaryStream(br *bufio.Reader) (*LogStream, error) {
	s, _, err := openBinaryReader(br)
	return s, err
}

// openBinaryReader parses a binary log's header and tables and returns the
// stream together with its counting reader (BlockOffsets walks offsets).
func openBinaryReader(br *bufio.Reader) (*LogStream, *binReader, error) {
	header := make([]byte, len(binMagic)+2)
	if _, err := io.ReadFull(br, header); err != nil {
		return nil, nil, fmt.Errorf("profile: binary log header: %w", noEOF(err))
	}
	version, flags := header[len(binMagic)], header[len(binMagic)+1]
	if version != binVersion {
		return nil, nil, fmt.Errorf("profile: unsupported binary log version %d", version)
	}
	if flags&^(binFlagGzip|binFlagCRC|binFlagSampled) != 0 {
		return nil, nil, fmt.Errorf("profile: binary log: unknown flags %#x", flags)
	}
	if flags&binFlagCRC == 0 {
		return nil, nil, fmt.Errorf("profile: binary log: flags %#x lack the checksum flag every v%d log carries", flags, binVersion)
	}
	compressed := flags&binFlagGzip != 0
	var body io.Reader = br
	if compressed {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, nil, fmt.Errorf("profile: binary log: %w", err)
		}
		gz.Multistream(false)
		body = gz
	}
	rd := bufio.NewReaderSize(body, 1<<16)
	d := &binReader{r: rd, compressed: compressed}

	p := &Profile{}
	var err error
	if p.Name, err = d.str("name"); err != nil {
		return nil, nil, err
	}
	if p.FinalClock, err = d.zig(); err != nil {
		return nil, nil, fmt.Errorf("profile: binary log: finalclock: %w", err)
	}
	if p.GCInterval, err = d.zig(); err != nil {
		return nil, nil, fmt.Errorf("profile: binary log: gcinterval: %w", err)
	}
	if flags&binFlagSampled != 0 {
		bits, err := d.uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("profile: binary log: samplerate: %w", err)
		}
		rate := math.Float64frombits(bits)
		if !(rate > 0 && rate < 1) {
			return nil, nil, fmt.Errorf("profile: binary log: sample rate %v outside (0, 1)", rate)
		}
		p.SampleRate = rate
	}
	if p.ClassNames, err = d.strs("class"); err != nil {
		return nil, nil, err
	}
	if p.MethodNames, err = d.strs("method"); err != nil {
		return nil, nil, err
	}
	if p.MethodFiles, err = d.strs("file"); err != nil {
		return nil, nil, err
	}
	nSites, err := d.count("site")
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < nSites; i++ {
		var s bytecode.Site
		s.ID = int32(i)
		method, err := d.zig()
		if err != nil {
			return nil, nil, fmt.Errorf("profile: binary log: site %d: %w", i, err)
		}
		line, err := d.zig()
		if err != nil {
			return nil, nil, fmt.Errorf("profile: binary log: site %d: %w", i, err)
		}
		s.Method, s.Line = int32(method), int32(line)
		if s.What, err = d.str("site what"); err != nil {
			return nil, nil, err
		}
		if s.Desc, err = d.str("site desc"); err != nil {
			return nil, nil, err
		}
		p.Sites = append(p.Sites, s)
	}
	nChains, err := d.count("chain")
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < nChains; i++ {
		var c vm.ChainNode
		parent, err1 := d.zig()
		method, err2 := d.zig()
		line, err3 := d.zig()
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, nil, fmt.Errorf("profile: binary log: chain node %d truncated", i)
		}
		c.Parent, c.Method, c.Line = int32(parent), int32(method), int32(line)
		p.ChainNodes = append(p.ChainNodes, c)
	}
	total, err := d.count("record")
	if err != nil {
		return nil, nil, err
	}
	blocks, err := d.count("block")
	if err != nil {
		return nil, nil, err
	}
	tableCRC := d.crc
	stored, err := d.storedCRC()
	if err != nil {
		return nil, nil, &CorruptLogError{Offset: d.offset(), Block: -1,
			Reason: "profile: binary log: table checksum truncated", Err: err}
	}
	if stored != tableCRC {
		return nil, nil, &CorruptLogError{Offset: d.offset() - 4, Block: -1,
			Reason: fmt.Sprintf("profile: binary log: table checksum mismatch (stored %08x, computed %08x)", stored, tableCRC)}
	}

	s := &LogStream{p: p, total: total, blocks: blocks, format: "binary", compressed: compressed}
	seen := 0
	s.next = func() (*Block, error) {
		if s.idx == blocks {
			if seen != total {
				return nil, corruptAt(d.offset(), s.idx, seen, nil,
					"profile: binary log declares %d records, blocks hold %d", total, seen)
			}
			if _, err := rd.ReadByte(); err != io.EOF {
				return nil, corruptAt(d.offset(), s.idx, seen, nil,
					"profile: binary log: trailing data after %d record blocks", blocks)
			}
			if gz, ok := body.(*gzip.Reader); ok {
				if err := gz.Close(); err != nil {
					return nil, corruptAt(d.offset(), s.idx, seen, err, "profile: binary log: %v", err)
				}
				if _, err := br.ReadByte(); err != io.EOF {
					return nil, corruptAt(d.offset(), s.idx, seen, nil,
						"profile: binary log: trailing data after gzip stream")
				}
			}
			return nil, io.EOF
		}
		if s.idx > 0 && s.idx%checkpointEveryBlocks == 0 {
			d.crc = tableCRC
			cum, err := d.uvarint()
			if err != nil {
				return nil, corruptAt(d.offset(), s.idx, seen, err,
					"profile: binary log: checkpoint before block %d: %v", s.idx, err)
			}
			stored, err := d.storedCRC()
			if err != nil {
				return nil, corruptAt(d.offset(), s.idx, seen, err,
					"profile: binary log: checkpoint before block %d: %v", s.idx, err)
			}
			if stored != d.crc {
				return nil, corruptAt(d.offset()-4, s.idx, seen, nil,
					"profile: binary log: checkpoint checksum mismatch before block %d", s.idx)
			}
			if int(cum) != seen {
				return nil, corruptAt(d.offset(), s.idx, seen, nil,
					"profile: binary log: checkpoint declares %d records, reader saw %d", cum, seen)
			}
			s.checkpoints++
		}
		blockStart := d.offset()
		d.crc = 0
		count, err := d.uvarint()
		if err != nil {
			return nil, corruptAt(d.offset(), s.idx, seen, err,
				"profile: binary log: block %d header: %v", s.idx, err)
		}
		plen, err := d.uvarint()
		if err != nil {
			return nil, corruptAt(d.offset(), s.idx, seen, err,
				"profile: binary log: block %d header: %v", s.idx, err)
		}
		if count > maxBlockRecords || seen+int(count) > total {
			return nil, corruptAt(blockStart, s.idx, seen, nil,
				"profile: binary log: block %d claims %d records (log total %d)", s.idx, count, total)
		}
		if plen < count*minRecordBytes || plen > count*maxRecordBytes {
			return nil, corruptAt(blockStart, s.idx, seen, nil,
				"profile: binary log: block %d payload length %d inconsistent with %d records", s.idx, plen, count)
		}
		payload := make([]byte, plen)
		if err := d.readFull(payload); err != nil {
			return nil, corruptAt(d.offset(), s.idx, seen, noEOF(err),
				"profile: binary log: block %d payload: %v", s.idx, noEOF(err))
		}
		payloadStart := d.offset() - int64(plen)
		stored, err := d.storedCRC()
		if err != nil {
			return nil, corruptAt(d.offset(), s.idx, seen, err,
				"profile: binary log: block %d checksum: %v", s.idx, err)
		}
		if stored != d.crc {
			return nil, corruptAt(blockStart, s.idx, seen, nil,
				"profile: binary log: block %d checksum mismatch (stored %08x, computed %08x)", s.idx, stored, d.crc)
		}
		n := int(count)
		idx := s.idx
		base := seen
		blk := &Block{
			Index:  idx,
			Count:  n,
			decode: func() ([]*Record, error) { return decodeRecordBlock(payload, n, idx, base, payloadStart) },
		}
		s.idx++
		seen += n
		return blk, nil
	}
	return s, d, nil
}

// decodeRecordBlock reverses appendRecordBlock. The payload must hold
// exactly count records; idx, base and payloadOff locate decode failures
// (block index, records decoded before the block, payload byte offset).
func decodeRecordBlock(payload []byte, count, idx, base int, payloadOff int64) ([]*Record, error) {
	out := make([]*Record, 0, count)
	recs := make([]Record, count)
	var pv recDeltas
	b := payload
	fail := func() ([]*Record, error) {
		off := payloadOff + int64(len(payload)-len(b))
		return nil, corruptAt(off, idx, base+len(out), nil,
			"profile: binary log: corrupt record block (%d of %d records decoded)", len(out), count)
	}
	zig := func() (int64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return unzigzag(v), true
	}
	for i := 0; i < count; i++ {
		if len(b) == 0 {
			return fail()
		}
		flags := b[0]
		if flags&^byte(7) != 0 {
			return fail()
		}
		b = b[1:]
		var v [12]int64
		for k := range v {
			var ok bool
			if v[k], ok = zig(); !ok {
				return fail()
			}
		}
		r := &recs[i]
		r.AllocID = uint64(v[0] + pv.allocID)
		r.Class = int32(v[1] + pv.class)
		r.Elem = bytecode.ElemKind(v[2])
		r.Size = v[3] + pv.size
		r.Site = int32(v[4] + pv.site)
		r.Chain = int32(v[5] + pv.chain)
		r.Create = v[6] + pv.create
		r.LastUse = v[7] + r.Create
		r.LastUseChain = int32(v[8] + pv.lastChain)
		r.LastUseKind = vm.UseKind(v[9])
		r.Uses = v[10]
		r.Collect = v[11] + r.Create
		r.Array = flags&1 != 0
		r.AtExit = flags&2 != 0
		r.Interned = flags&4 != 0
		pv = recDeltas{
			allocID: int64(r.AllocID), class: int64(r.Class), size: r.Size,
			site: int64(r.Site), chain: int64(r.Chain), create: r.Create,
			lastChain: int64(r.LastUseChain),
		}
		out = append(out, r)
	}
	if len(b) != 0 {
		return nil, corruptAt(payloadOff+int64(len(payload)-len(b)), idx, base+len(out), nil,
			"profile: binary log: %d trailing bytes in record block", len(b))
	}
	return out, nil
}

// ---- text stream ----

// textBlockLines is the text reader's block granularity, matched to the
// binary default so the parallel analyzer behaves the same on both.
const textBlockLines = DefaultBlockRecords

func openTextStream(br *bufio.Reader) (*LogStream, error) {
	rd := &logReader{br: br}
	p, total, err := readTextHeader(rd)
	if err != nil {
		return nil, err
	}
	blocks := (total + textBlockLines - 1) / textBlockLines
	s := &LogStream{p: p, total: total, blocks: blocks, format: "text"}
	produced := 0
	var pending error // truncation fault held back until the short block drains
	s.next = func() (*Block, error) {
		if pending != nil {
			err := pending
			pending = nil
			return nil, err
		}
		if produced == total {
			for {
				raw, err := br.ReadString('\n')
				if trimmed := strings.TrimSpace(raw); trimmed != "" {
					return nil, corruptAt(rd.off, s.idx, produced, nil,
						"profile: trailing garbage after %d records: %q", total, trimmed)
				}
				if err == io.EOF {
					return nil, io.EOF
				}
				if err != nil {
					return nil, err
				}
				rd.off += int64(len(raw))
			}
		}
		n := total - produced
		if n > textBlockLines {
			n = textBlockLines
		}
		lines := make([]string, 0, n)
		offs := make([]int64, 0, n)
		for len(lines) < n {
			off := rd.off
			line, err := rd.line()
			if err == io.ErrUnexpectedEOF {
				// Every complete line is independently recoverable: emit
				// the intact prefix as a short block, then fault.
				pending = corruptAt(rd.off, s.idx, produced+len(lines), nil,
					"profile: record section truncated: log declares %d records, found %d",
					total, produced+len(lines))
				if len(lines) == 0 {
					err := pending
					pending = nil
					return nil, err
				}
				n = len(lines)
				break
			}
			if err != nil {
				return nil, err
			}
			lines = append(lines, line)
			offs = append(offs, off)
		}
		idx := s.idx
		base := produced
		blk := &Block{
			Index: idx,
			Count: n,
			decode: func() ([]*Record, error) {
				recs := make([]*Record, 0, len(lines))
				for i, line := range lines {
					r, err := parseRecord(line)
					if err != nil {
						return nil, corruptAt(offs[i], idx, base+len(recs), err, "%v", err)
					}
					recs = append(recs, r)
				}
				return recs, nil
			},
		}
		s.idx++
		produced += n
		return blk, nil
	}
	return s, nil
}
