package profile

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

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
	// logs this is the absolute file offset; for gzipped logs it is the
	// offset into the decompressed body (the compressed file offset of a
	// fault inside a deflate stream is not recoverable).
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

// LogStream is the streaming reader over a binary v4 drag log: the
// header and tables are parsed eagerly, the record section is surfaced as
// a sequence of blocks whose decoding the caller may fan out over CPUs.
// Nothing materializes the full record slice unless the caller collects it.
type LogStream struct {
	p           *Profile
	total       int
	blocks      int
	idx         int
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

// OpenLogStream checks a binary v4 log's header, parses its tables and
// returns a streaming reader over its record blocks. Any input without the
// binary magic is refused.
func OpenLogStream(r io.Reader) (*LogStream, error) {
	s, _, err := openBinaryReader(bufio.NewReaderSize(r, 1<<16))
	return s, err
}

// ReadLog parses a complete profile from a binary v4 log.
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

// HeaderBytes is the length of a binary log's header: the magic, the
// version byte and the flags byte.
const HeaderBytes = len(binMagic) + 2

// CheckHeader returns the error the reader gives a log that starts with
// head, judging its magic, version and flags alone, or nil when the reader
// accepts them. Input without the binary magic is not a log, whatever it
// holds.
func CheckHeader(head []byte) error {
	if !bytes.HasPrefix(head, binMagic[:]) {
		return errors.New("profile: not a dragprof binary log")
	}
	if len(head) < HeaderBytes {
		return fmt.Errorf("profile: binary log header: %w", io.ErrUnexpectedEOF)
	}
	version, flags := head[len(binMagic)], head[len(binMagic)+1]
	if version != binVersion {
		return fmt.Errorf("profile: unsupported binary log version %d (this reader reads version %d)", version, binVersion)
	}
	if flags&^(binFlagGzip|binFlagCRC|binFlagSampled) != 0 {
		return fmt.Errorf("profile: binary log: unknown flags %#x", flags)
	}
	if flags&binFlagCRC == 0 {
		return fmt.Errorf("profile: binary log: flags %#x lack the checksum flag every v%d log carries", flags, binVersion)
	}
	return nil
}

// openBinaryReader parses a binary log's header and tables and returns the
// stream together with its counting reader (BlockOffsets walks offsets).
func openBinaryReader(br *bufio.Reader) (*LogStream, *binReader, error) {
	header := make([]byte, HeaderBytes)
	if _, err := io.ReadFull(br, header); err != nil {
		return nil, nil, fmt.Errorf("profile: binary log header: %w", noEOF(err))
	}
	if err := CheckHeader(header); err != nil {
		return nil, nil, err
	}
	flags := header[len(binMagic)+1]
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

	s := &LogStream{p: p, total: total, blocks: blocks, compressed: compressed}
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
		if plen < minPayloadBytes(count) || plen > maxPayloadBytes(count) {
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

// decodeRecordBlock reverses blockEncoder.encode: one straight loop over
// the shape section, then one over the time section. The payload must
// hold exactly count records; idx, base and payloadOff locate decode
// failures (block index, records decoded before the block, payload byte
// offset).
func decodeRecordBlock(payload []byte, count, idx, base int, payloadOff int64) ([]*Record, error) {
	shapeLen, k := binary.Uvarint(payload)
	if k <= 0 || shapeLen > uint64(len(payload)-k) {
		return nil, corruptAt(payloadOff, idx, base, nil,
			"profile: binary log: block %d shape-section length overruns its %d-byte payload", idx, len(payload))
	}
	shape := payload[k : k+int(shapeLen)]
	times := payload[k+int(shapeLen):]
	shapeOff := payloadOff + int64(k)
	timeOff := shapeOff + int64(shapeLen)

	recs := make([]Record, count)
	p := 0
	for i := range recs {
		if p == len(shape) || shape[p]&^7 != 0 {
			return nil, corruptAt(shapeOff+int64(p), idx, base, nil,
				"profile: binary log: corrupt shape section in block %d (record %d of %d)", idx, i, count)
		}
		flags := shape[p]
		p++
		var v [8]uint64
		for f := range v {
			x, next := uvarintAt(shape, p)
			if next == 0 {
				return nil, corruptAt(shapeOff+int64(p), idx, base, nil,
					"profile: binary log: corrupt shape section in block %d (record %d of %d)", idx, i, count)
			}
			v[f], p = x, next
		}
		r := &recs[i]
		r.Array = flags&1 != 0
		r.AtExit = flags&2 != 0
		r.Interned = flags&4 != 0
		r.Class = int32(unzigzag(v[0]))
		r.Elem = bytecode.ElemKind(unzigzag(v[1]))
		r.Size = unzigzag(v[2])
		r.Site = int32(unzigzag(v[3]))
		r.Chain = int32(unzigzag(v[4]))
		r.LastUseChain = int32(unzigzag(v[5]))
		r.LastUseKind = vm.UseKind(unzigzag(v[6]))
		r.Uses = unzigzag(v[7])
	}
	if p != len(shape) {
		return nil, corruptAt(shapeOff+int64(p), idx, base, nil,
			"profile: binary log: %d trailing bytes in the shape section of block %d", len(shape)-p, idx)
	}

	out := make([]*Record, count)
	var allocID, create, collect int64
	p = 0
	for i := range recs {
		var v [4]uint64
		for f := range v {
			x, next := uvarintAt(times, p)
			if next == 0 {
				return nil, corruptAt(timeOff+int64(p), idx, base+i, nil,
					"profile: binary log: corrupt time section in block %d (record %d of %d)", idx, i, count)
			}
			v[f], p = x, next
		}
		r := &recs[i]
		allocID += unzigzag(v[0])
		create += unzigzag(v[1])
		collect += unzigzag(v[3])
		r.AllocID = uint64(allocID)
		r.Create = create
		r.LastUse = create + unzigzag(v[2])
		r.Collect = collect
		out[i] = r
	}
	if p != len(times) {
		return nil, corruptAt(timeOff+int64(p), idx, base+count, nil,
			"profile: binary log: %d trailing bytes in the time section of block %d", len(times)-p, idx)
	}
	return out, nil
}

// uvarintAt decodes the uvarint at b[p:] and returns it with the offset
// just past it; next is 0 when b[p:] holds no complete varint or one that
// overflows 64 bits (binary.Uvarint's rule). It is small enough to inline.
func uvarintAt(b []byte, p int) (v uint64, next int) {
	for s := uint(0); s < 64 && p < len(b); s += 7 {
		c := b[p]
		p++
		if c < 0x80 {
			if s == 63 && c > 1 {
				return 0, 0
			}
			return v | uint64(c)<<s, p
		}
		v |= uint64(c&0x7f) << s
	}
	return 0, 0
}
