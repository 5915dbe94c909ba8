package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Log format: a stream of self-delimiting frames, identical for the WAL and
// the snapshot (a snapshot is just a compacted log replayed first on boot).
//
//	magic   uint32  frame marker, also the resync anchor after corruption
//	length  uint32  payload byte count
//	crc     uint32  CRC-32C (Castagnoli) of the payload
//	payload []byte  one JSON-encoded record (a Record or a JobRecord)
//
// All integers little-endian. Recovery tolerates two distinct failure
// shapes:
//
//   - Torn/truncated tail: a crash mid-append leaves a partial frame at the
//     end of the file. The parser stops at the first frame that runs past
//     EOF, reports the byte count, and Open truncates the WAL back to the
//     end of the last whole frame before appending again.
//   - Corrupt record: a flipped bit anywhere in a frame fails the CRC (or
//     the magic/length sanity checks) and the parser scans forward for the
//     next magic marker, skipping only the damaged frame. Records after the
//     damage are recovered.
const (
	logMagic    = uint32(0x45424D46) // "EBMF"
	frameHeader = 12                 // magic + length + crc
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxRecordBytes bounds one record's payload, both appended and recovered,
// so a corrupt length field cannot make replay swallow the rest of a file
// as one record.
const maxRecordBytes = 16 << 20

// encodeFrame marshals one record into its framed log form.
func encodeFrame(rec any) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("store: %d-byte record exceeds the %d-byte limit", len(payload), maxRecordBytes)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], logMagic)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// decodeInto returns a replay decoder that unmarshals each payload into a
// fresh record, validates it and hands it to apply. Validation gates
// recovery exactly as it gates appends: a corrupt frame that happens to
// checksum correctly still cannot smuggle in a record the owner would trip
// over.
func decodeInto[T any, P interface {
	*T
	Validate() error
}](apply func(P)) func(payload []byte) bool {
	return func(payload []byte) bool {
		rec := P(new(T))
		if json.Unmarshal(payload, rec) != nil || rec.Validate() != nil {
			return false
		}
		apply(rec)
		return true
	}
}

// frameScan is one log file's replay outcome, independent of the record
// type carried in the payloads.
type frameScan struct {
	// records counts frames decode accepted; size is the file's length.
	records, size int64
	// skippedRecords counts frames dropped for CRC/decode/validation
	// failures; skippedBytes counts raw bytes consumed by resync scans.
	skippedRecords int64
	skippedBytes   int64
	// tornBytes is the length of the truncated tail (0 when the file ends
	// exactly on a frame boundary).
	tornBytes int64
	// validEnd is the offset just past the last successfully parsed frame —
	// the truncation point that removes trailing garbage without touching
	// any recovered record.
	validEnd int64
}

// scanFrames replays one log file's bytes, calling accept for each
// whole, checksum-valid payload. It never fails: damage is skipped and
// counted, and whatever whole valid frames exist are visited in file order.
// accept returning false marks a well-framed but semantically invalid
// record: it is counted as skipped, but — since the frame delimits itself
// fine — the scan advances normally and validEnd still covers it.
func scanFrames(data []byte, accept func(payload []byte) bool) frameScan {
	out := frameScan{size: int64(len(data))}
	var magicBytes [4]byte
	binary.LittleEndian.PutUint32(magicBytes[:], logMagic)

	off := 0
	// resync advances past a damaged region to the next magic marker,
	// counting the scan. from is the first byte that might start a frame.
	resync := func(from int) {
		i := bytes.Index(data[from:], magicBytes[:])
		if i < 0 {
			out.skippedBytes += int64(len(data) - off)
			off = len(data)
			return
		}
		out.skippedBytes += int64(from + i - off)
		off = from + i
	}

	for off < len(data) {
		if len(data)-off < frameHeader {
			// Partial header at EOF: torn tail.
			out.tornBytes = int64(len(data) - off)
			break
		}
		if binary.LittleEndian.Uint32(data[off:]) != logMagic {
			// Not a frame boundary (garbage or a previous frame's damage):
			// scan forward.
			resync(off + 1)
			continue
		}
		length := int(binary.LittleEndian.Uint32(data[off+4:]))
		if length <= 0 || length > maxRecordBytes {
			// Corrupt length field; the frame cannot be trusted to delimit
			// itself, so skip this marker and resync.
			out.skippedRecords++
			resync(off + 1)
			continue
		}
		if off+frameHeader+length > len(data) {
			// Frame runs past EOF. Either a torn tail (nothing but this
			// frame left) or a corrupt length that happens to be large;
			// both are handled by checking whether another marker follows.
			if i := bytes.Index(data[off+1:], magicBytes[:]); i >= 0 {
				out.skippedRecords++
				resync(off + 1)
				continue
			}
			out.tornBytes = int64(len(data) - off)
			break
		}
		payload := data[off+frameHeader : off+frameHeader+length]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+8:]) {
			out.skippedRecords++
			resync(off + 1)
			continue
		}
		if accept(payload) {
			out.records++
		} else {
			out.skippedRecords++
		}
		off += frameHeader + length
		out.validEnd = int64(off)
	}
	return out
}
