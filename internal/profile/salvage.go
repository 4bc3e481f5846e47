package profile

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// SalvageReport describes what SalvageLog recovered from a damaged drag
// log. It marshals to JSON for archival (the CI fault-injection job stores
// one per injected fault).
type SalvageReport struct {
	// Compressed reports a gzipped body.
	Compressed bool `json:"compressed"`
	// Truncated is true when the log yielded fewer records than it
	// declares (the salvage stopped at a fault).
	Truncated bool `json:"truncated"`
	// BlocksRecovered and BlocksDropped partition the declared record
	// blocks into those decoded intact and those lost to the fault.
	BlocksRecovered int `json:"blocksRecovered"`
	BlocksDropped   int `json:"blocksDropped"`
	// RecordsRecovered and RecordsDeclared count trailer records.
	RecordsRecovered int `json:"recordsRecovered"`
	RecordsDeclared  int `json:"recordsDeclared"`
	// FirstBadOffset is the byte offset of the first detected fault
	// (CorruptLogError.Offset semantics), or -1 for a clean log.
	FirstBadOffset int64 `json:"firstBadOffset"`
	// BadBlock is the record-block index the fault was detected in; -1
	// for a clean log or a fault outside the record section.
	BadBlock int `json:"badBlock"`
	// Reason describes the fault ("" for a clean log).
	Reason string `json:"reason,omitempty"`
	// CheckpointsVerified counts checkpoint frames that validated before
	// the fault.
	CheckpointsVerified int `json:"checkpointsVerified"`
}

// Clean reports whether the log parsed completely with no fault.
func (sr *SalvageReport) Clean() bool { return !sr.Truncated && sr.Reason == "" }

// Summary renders a one-line human-readable digest.
func (sr *SalvageReport) Summary() string {
	if sr.Clean() {
		return fmt.Sprintf("clean log: %d records in %d blocks", sr.RecordsRecovered, sr.BlocksRecovered)
	}
	return fmt.Sprintf("partial log: recovered %d of %d records (%d of %d blocks); first fault at byte %d: %s",
		sr.RecordsRecovered, sr.RecordsDeclared,
		sr.BlocksRecovered, sr.BlocksRecovered+sr.BlocksDropped, sr.FirstBadOffset, sr.Reason)
}

// SalvageLog reads as much of a drag log as its integrity machinery can
// vouch for: every record block preceding the first fault (truncation, bit
// flip, checksum or checkpoint mismatch) is recovered; the fault itself is
// reported in the SalvageReport instead of failing the read. A non-nil
// error is returned only when the header or tables are damaged — without
// them the records are meaningless, so nothing is salvageable (the report
// still describes the fault).
func SalvageLog(r io.Reader) (*Profile, *SalvageReport, error) {
	sr := &SalvageReport{FirstBadOffset: -1, BadBlock: -1}
	s, err := OpenLogStream(r)
	if err != nil {
		sr.Truncated = true
		sr.noteFault(err)
		return nil, sr, err
	}
	sr.Compressed = s.Compressed()
	sr.RecordsDeclared = s.TotalRecords()
	p := s.Profile()
	for {
		blk, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sr.noteFault(err)
			break
		}
		recs, err := blk.Decode()
		if err != nil {
			sr.noteFault(err)
			break
		}
		p.Records = append(p.Records, recs...)
		sr.BlocksRecovered++
	}
	sr.RecordsRecovered = len(p.Records)
	sr.CheckpointsVerified = s.Checkpoints()
	if sr.BlocksRecovered < s.TotalBlocks() {
		sr.BlocksDropped = s.TotalBlocks() - sr.BlocksRecovered
	}
	sr.Truncated = sr.RecordsRecovered < sr.RecordsDeclared
	return p, sr, nil
}

func (sr *SalvageReport) noteFault(err error) {
	var ce *CorruptLogError
	if errors.As(err, &ce) {
		sr.FirstBadOffset = ce.Offset
		sr.BadBlock = ce.Block
		sr.Reason = ce.Reason
		return
	}
	sr.Reason = err.Error()
}

// BlockOffsets reports, for an uncompressed log, the absolute file
// offset at which each record block ends — the truncation points that
// preserve complete prefixes. offsets[k] is the first byte past block k's
// checksum footer; a log truncated at offsets[k] salvages exactly blocks
// 0..k. The fault-injection harness drives its truncation matrix off this.
func BlockOffsets(data []byte) ([]int64, error) {
	s, d, err := openBinaryReader(bufio.NewReaderSize(bytes.NewReader(data), 1<<16))
	if err != nil {
		return nil, err
	}
	if d.compressed {
		return nil, fmt.Errorf("profile: BlockOffsets requires an uncompressed log")
	}
	var ends []int64
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		ends = append(ends, d.offset())
	}
	return ends, nil
}
