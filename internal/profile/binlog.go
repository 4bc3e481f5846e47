package profile

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
)

// Binary drag-log format v3. The text format (log.go) is the paper's
// human-inspectable interface; v3 is the compact machine interface the
// parallel analyzer reads. Layout:
//
//	magic    "dplg" (4 bytes)
//	version  1 byte (3)
//	flags    1 byte (bit0: the rest of the file is one gzip stream;
//	         bit1: CRC32C footers and checkpoints are present, set in
//	         every log and required by the reader;
//	         bit2: a sample-rate field follows gcinterval)
//	-- body, optionally gzipped --
//	name       string            (uvarint length + bytes)
//	finalclock zigzag varint
//	gcinterval zigzag varint
//	samplerate uvarint of math.Float64bits, only when flag bit2 is set
//	           (exact logs omit both the bit and the field, so pre-sampling
//	           logs and exact logs are byte-identical and read as rate 1)
//	classes    uvarint count + strings
//	methods    uvarint count + strings
//	files      uvarint count + strings
//	sites      uvarint count; per site: zigzag method, zigzag line,
//	           string what, string desc (ids are implicit indices)
//	chains     uvarint count; per node: zigzag parent, method, line
//	records    uvarint total count, uvarint block count, then blocks
//
// The table section — everything from the body start through the
// block-count varint — is followed by a 4-byte little-endian CRC32C
// footer, every record block carries its own 4-byte CRC32C footer, and a
// checkpoint frame follows every checkpointEveryBlocks-th block (except
// the last):
//
//	checkpoint: uvarint cumulative-record-count, 4-byte CRC32C
//
// The checkpoint CRC is seeded with the table CRC and covers the varint,
// chaining the record stream's integrity back to the header tables. The
// footers make the log crash-safe: a log truncated or bit-flipped at any
// byte offset still yields every intact prefix block to SalvageLog, and
// corruption is detected at the damaged block rather than surfacing as
// garbage records downstream.
//
// Records are split into blocks of at most maxBlockRecords trailers so a
// reader can decode blocks on independent CPUs; each block is
//
//	uvarint record count, uvarint payload byte length, payload
//	4-byte CRC32C over the two varints and the payload
//
// and the payload is a sequence of delta-encoded trailers whose delta
// state resets at every block boundary (a block decodes with no context
// beyond the payload itself). Per trailer:
//
//	flags      1 byte (1 array, 2 atexit, 4 interned)
//	allocid    zigzag delta from previous trailer (allocation order
//	           makes this a small positive number)
//	class      zigzag delta
//	elem       zigzag
//	size       zigzag delta
//	site       zigzag delta
//	chain      zigzag delta
//	create     zigzag delta (the allocation clock is monotone)
//	lastuse    zigzag relative to create
//	lastchain  zigzag delta
//	lastkind   zigzag
//	uses       zigzag
//	collect    zigzag relative to create
const (
	binVersion     = 3
	binFlagGzip    = 1
	binFlagCRC     = 2
	binFlagSampled = 4

	// checkpointEveryBlocks is the checkpoint cadence: after every 16th
	// record block (unless it is the last) the writer emits a cumulative
	// record count chained to the table CRC.
	checkpointEveryBlocks = 16

	// maxBlockRecords bounds a block's record count; readers reject
	// larger claims before allocating.
	maxBlockRecords = 1 << 20
	// maxRecordBytes is the largest possible encoded trailer (flags byte
	// plus twelve 10-byte varints); payload lengths outside
	// [13, maxRecordBytes] bytes per record are corrupt.
	maxRecordBytes = 1 + 12*binary.MaxVarintLen64
	// minRecordBytes is the smallest possible encoded trailer.
	minRecordBytes = 13
	// maxStringBytes bounds a single table string.
	maxStringBytes = 1 << 24
	// maxTableEntries bounds every table's entry count.
	maxTableEntries = 1 << 28
)

var binMagic = [4]byte{'d', 'p', 'l', 'g'}

// castagnoli is the CRC32C polynomial table (the iSCSI/ext4 polynomial,
// hardware-accelerated on amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DefaultBlockRecords is the writer's default records-per-block: small
// enough that GOMAXPROCS blocks are in flight on real logs, large enough
// that the per-block delta reset costs nothing.
const DefaultBlockRecords = 4096

// BinaryOptions tune WriteBinaryLog.
type BinaryOptions struct {
	// Compress gzips the body (the header stays raw for detection).
	Compress bool
	// BlockRecords is the records-per-block granularity (default 4096,
	// capped at 1<<20).
	BlockRecords int
}

// WriteBinaryLog serializes the profile in the v3 binary format with
// CRC32C block footers and periodic checkpoints. Every error — including
// gzip close/flush failures — is propagated; the gzip stream is closed on
// all paths.
func WriteBinaryLog(w io.Writer, p *Profile, opts BinaryOptions) error {
	if opts.BlockRecords <= 0 {
		opts.BlockRecords = DefaultBlockRecords
	}
	if opts.BlockRecords > maxBlockRecords {
		opts.BlockRecords = maxBlockRecords
	}
	flags := byte(binFlagCRC)
	if opts.Compress {
		flags |= binFlagGzip
	}
	if p.Sampled() {
		flags |= binFlagSampled
	}
	header := []byte{binMagic[0], binMagic[1], binMagic[2], binMagic[3], binVersion, flags}
	if _, err := w.Write(header); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var body io.Writer = bw
	var gz *gzip.Writer
	if opts.Compress {
		gz = gzip.NewWriter(bw)
		body = gz
	}
	err := writeBinaryBody(body, p, opts)
	if gz != nil {
		// Close on every path so a body error never leaks a dangling
		// gzip stream, and a clean body still surfaces close errors.
		if cerr := gz.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

func writeBinaryBody(w io.Writer, p *Profile, opts BinaryOptions) error {
	enc := &binEncoder{w: w}
	enc.str(p.Name)
	enc.zig(p.FinalClock)
	enc.zig(p.GCInterval)
	if p.Sampled() {
		enc.uvarint(math.Float64bits(p.SampleRate))
	}
	enc.strs(p.ClassNames)
	enc.strs(p.MethodNames)
	enc.strs(p.MethodFiles)
	enc.uvarint(uint64(len(p.Sites)))
	for _, s := range p.Sites {
		enc.zig(int64(s.Method))
		enc.zig(int64(s.Line))
		enc.str(s.What)
		enc.str(s.Desc)
	}
	enc.uvarint(uint64(len(p.ChainNodes)))
	for _, c := range p.ChainNodes {
		enc.zig(int64(c.Parent))
		enc.zig(int64(c.Method))
		enc.zig(int64(c.Line))
	}
	n := len(p.Records)
	enc.uvarint(uint64(n))
	blocks := (n + opts.BlockRecords - 1) / opts.BlockRecords
	enc.uvarint(uint64(blocks))
	tableCRC := enc.crc
	enc.rawCRC(tableCRC)
	var scratch []byte
	written, b := 0, 0
	for i := 0; i < n; i += opts.BlockRecords {
		j := min(i+opts.BlockRecords, n)
		scratch = appendRecordBlock(scratch[:0], p.Records[i:j])
		enc.crc = 0
		enc.uvarint(uint64(j - i))
		enc.uvarint(uint64(len(scratch)))
		enc.bytes(scratch)
		enc.rawCRC(enc.crc)
		written += j - i
		b++
		if b%checkpointEveryBlocks == 0 && b < blocks {
			enc.crc = tableCRC
			enc.uvarint(uint64(written))
			enc.rawCRC(enc.crc)
		}
	}
	return enc.err
}

type binEncoder struct {
	w   io.Writer
	buf [binary.MaxVarintLen64]byte
	crc uint32
	err error
}

func (e *binEncoder) write(b []byte) {
	if e.err != nil {
		return
	}
	e.crc = crc32.Update(e.crc, castagnoli, b)
	_, e.err = e.w.Write(b)
}

func (e *binEncoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.write(e.buf[:n])
}

func (e *binEncoder) zig(v int64) { e.uvarint(zigzag(v)) }

func (e *binEncoder) bytes(b []byte) { e.write(b) }

// rawCRC emits a little-endian CRC32C footer; the footer itself is not
// hashed.
func (e *binEncoder) rawCRC(crc uint32) {
	if e.err != nil {
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], crc)
	_, e.err = e.w.Write(b[:])
}

func (e *binEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.err != nil {
		return
	}
	e.crc = crc32.Update(e.crc, castagnoli, []byte(s))
	_, e.err = io.WriteString(e.w, s)
}

func (e *binEncoder) strs(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// recDeltas is the per-block delta state.
type recDeltas struct {
	allocID, class, size, site, chain, create, lastChain int64
}

// appendRecordBlock delta-encodes recs onto dst with fresh delta state.
func appendRecordBlock(dst []byte, recs []*Record) []byte {
	var pv recDeltas
	for _, r := range recs {
		var flags byte
		if r.Array {
			flags |= 1
		}
		if r.AtExit {
			flags |= 2
		}
		if r.Interned {
			flags |= 4
		}
		dst = append(dst, flags)
		dst = appendZig(dst, int64(r.AllocID)-pv.allocID)
		dst = appendZig(dst, int64(r.Class)-pv.class)
		dst = appendZig(dst, int64(r.Elem))
		dst = appendZig(dst, r.Size-pv.size)
		dst = appendZig(dst, int64(r.Site)-pv.site)
		dst = appendZig(dst, int64(r.Chain)-pv.chain)
		dst = appendZig(dst, r.Create-pv.create)
		dst = appendZig(dst, r.LastUse-r.Create)
		dst = appendZig(dst, int64(r.LastUseChain)-pv.lastChain)
		dst = appendZig(dst, int64(r.LastUseKind))
		dst = appendZig(dst, r.Uses)
		dst = appendZig(dst, r.Collect-r.Create)
		pv = recDeltas{
			allocID: int64(r.AllocID), class: int64(r.Class), size: r.Size,
			site: int64(r.Site), chain: int64(r.Chain), create: r.Create,
			lastChain: int64(r.LastUseChain),
		}
	}
	return dst
}

func appendZig(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, zigzag(v))
}
