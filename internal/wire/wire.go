// Package wire is the shard exchange codec: length-prefixed,
// checksummed frames carrying packed dictionary-ID row payloads
// between the coordinator and prost-shard worker processes.
//
// Frame layout (all integers little-endian):
//
//	magic   4 bytes  "PRW2"
//	type    1 byte   message discriminator (opaque to this package)
//	length  4 bytes  payload length
//	payload length bytes
//	check   4 bytes  CRC-32C (Castagnoli) over type ++ length ++ payload
//
// A frame is built in place: Begin reserves the header in a buffer the
// caller borrowed from the frame pool (GetFrame), the caller appends the
// payload behind it, Finish patches the length and appends the
// checksum, and the frame goes out in one Write; ReadFrameInto reads one
// back into a borrowed buffer. A call gives its buffers back (PutFrame)
// once it is over, grown to whatever its frames needed, so the next
// call of any size finds them grown. The checksum is the protocol's
// only integrity check: one hardware-accelerated pass over every
// payload byte per direction.
//
// Row payloads use PR 1's packed layout: each value is one uint32
// dictionary ID, rows are fixed-width, so a partition serializes as
// width ++ count ++ count*width IDs with no per-row framing — the bytes
// of a flat, row-major block of IDs, which is how both ends hold rows.
// AppendRowsHeader + AppendIDs encode a section and DecodeIDsInto
// decodes one, each in one pass over the IDs; AppendRows and DecodeRows
// are the same codec over row slices.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
)

// Magic identifies a PRoST wire frame, version 2 (CRC-32C trailer).
const Magic = "PRW2"

// MaxFrameBytes bounds a single frame's payload so a corrupted or
// hostile length prefix cannot force an arbitrary allocation.
const MaxFrameBytes = 1 << 30

const (
	headerLen  = len(Magic) + 1 + 4
	trailerLen = 4
	checkChunk = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum is returned when a frame's checksum does not match its
// contents.
var ErrChecksum = errors.New("wire: frame checksum mismatch")

// ErrMagic is returned when a frame does not start with Magic.
var ErrMagic = errors.New("wire: bad frame magic")

// ShardError is the typed failure a coordinator surfaces when a shard
// process dies or misbehaves mid-query. The scheduler unwraps it into
// the task-attempt machinery so a dead shard reports like a permanent
// worker outage rather than an anonymous I/O error.
type ShardError struct {
	// Addr is the shard's listen address.
	Addr string
	// Shard is the shard index, -1 when unknown.
	Shard int
	// Err is the underlying failure.
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("wire: shard %d (%s): %v", e.Shard, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Begin starts a frame of the given type in buf's storage (contents
// discarded, capacity reused), sized for payloadHint payload bytes. The
// caller appends the payload to the returned slice and seals it with
// Finish.
func Begin(buf []byte, typ byte, payloadHint int) []byte {
	buf = slices.Grow(buf[:0], headerLen+payloadHint+trailerLen)
	buf = append(buf, Magic...)
	return append(buf, typ, 0, 0, 0, 0)
}

// Finish seals a frame started by Begin: it patches the payload length
// into the header and appends the checksum.
func Finish(frame []byte) ([]byte, error) {
	size := len(frame) - headerLen
	if size > MaxFrameBytes {
		return nil, fmt.Errorf("wire: frame payload %d bytes exceeds limit", size)
	}
	binary.LittleEndian.PutUint32(frame[len(Magic)+1:], uint32(size))
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame[len(Magic):], castagnoli)), nil
}

// framePool holds the frame buffers of calls that are over, whatever
// their size, for the next call to build or read its frames in. A
// buffer is stored by pointer, so returning one boxes nothing; what no
// call takes back between two collections, the collector frees.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// GetFrame lends a frame buffer from the pool, to pass to Begin or
// ReadFrameInto and to store what they return back into.
func GetFrame() *[]byte { return framePool.Get().(*[]byte) }

// PutFrame gives a buffer GetFrame lent back to the pool. Nothing may
// read or write its bytes afterwards: the next GetFrame hands them out.
func PutFrame(buf *[]byte) { framePool.Put(buf) }

// WriteFrame writes one frame of the given type and payload to w in a
// single Write, returning the total bytes written on the wire.
func WriteFrame(w io.Writer, typ byte, payload []byte) (int64, error) {
	buf := GetFrame()
	defer PutFrame(buf)
	frame, err := Finish(append(Begin(*buf, typ, len(payload)), payload...))
	if err != nil {
		return 0, err
	}
	*buf = frame
	n, err := w.Write(frame)
	return int64(n), err
}

// ReadFrame reads one frame from r into a fresh buffer; see
// ReadFrameInto.
func ReadFrame(r io.Reader) (typ byte, payload []byte, n int64, err error) {
	typ, payload, _, n, err = ReadFrameInto(r, nil)
	return typ, payload, n, err
}

// ReadFrameInto reads one frame from r into buf's storage (contents
// discarded, grown as needed and returned for reuse), verifying magic
// and checksum. It returns the type, the payload — which aliases the
// returned buffer — and the total bytes consumed. A frame that fails
// validation returns ErrMagic or ErrChecksum; the payload is never
// handed to the caller unverified.
func ReadFrameInto(r io.Reader, buf []byte) (typ byte, payload, grown []byte, n int64, err error) {
	buf = slices.Grow(buf[:0], headerLen)[:headerLen]
	got, err := io.ReadFull(r, buf)
	n = int64(got)
	if err != nil {
		return 0, nil, buf, n, err
	}
	if string(buf[:len(Magic)]) != Magic {
		return 0, nil, buf, n, ErrMagic
	}
	size := binary.LittleEndian.Uint32(buf[len(Magic)+1:])
	if size > MaxFrameBytes {
		return 0, nil, buf, n, fmt.Errorf("wire: frame payload %d bytes exceeds limit", size)
	}
	end := headerLen + int(size)
	if cap(buf) < end+trailerLen {
		// make, not slices.Grow: fresh memory is not touched until the
		// bytes arrive, so a hostile length commits nothing.
		buf = append(make([]byte, 0, end+trailerLen), buf...)
	}
	buf = buf[:end+trailerLen]
	// The checksum follows the reads chunk by chunk, while each chunk is
	// still in cache.
	crc := crc32.Update(0, castagnoli, buf[len(Magic):headerLen])
	for lo := headerLen; lo < len(buf); lo += checkChunk {
		hi := min(lo+checkChunk, len(buf))
		got, err = io.ReadFull(r, buf[lo:hi])
		n += int64(got)
		if err != nil {
			return 0, nil, buf, n, err
		}
		if lo < end {
			crc = crc32.Update(crc, castagnoli, buf[lo:min(hi, end)])
		}
	}
	if binary.LittleEndian.Uint32(buf[end:]) != crc {
		return 0, nil, buf, n, ErrChecksum
	}
	return buf[len(Magic)], buf[headerLen:end:end], buf, n, nil
}

// AppendRowsHeader appends the header of a packed rows section —
// width and row count — whose count×width IDs the caller appends next
// (AppendIDs), in one call or several. Width 0 rows (existence
// relations) are legal: only the count carries information.
func AppendRowsHeader(buf []byte, width, count int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(width))
	return binary.LittleEndian.AppendUint32(buf, uint32(count))
}

// AppendIDs appends IDs to a rows section, uint32 little-endian.
func AppendIDs[T ~uint32](buf []byte, ids []T) []byte {
	for _, v := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// AppendRows serializes fixed-width uint32 rows onto buf in the packed
// PR 1 layout: width, row count, then the IDs row-major, all uint32
// little-endian.
func AppendRows[R ~[]T, T ~uint32](buf []byte, width int, rows []R) []byte {
	buf = slices.Grow(buf, int(RowsSize(width, len(rows))))
	buf = AppendRowsHeader(buf, width, len(rows))
	for _, r := range rows {
		buf = AppendIDs(buf, r)
	}
	return buf
}

// RowsShape validates the packed rows section at the head of buf and
// returns its width and row count. A body longer than buf and an
// implausible width-0 count are rejected here, before any allocation
// is sized from the untrusted header.
func RowsShape(buf []byte) (width, count int, err error) {
	if len(buf) < 8 {
		return 0, 0, fmt.Errorf("wire: rows section truncated header")
	}
	width = int(binary.LittleEndian.Uint32(buf))
	count = int(binary.LittleEndian.Uint32(buf[4:]))
	if width != 0 && count > (len(buf)-8)/(width*4) {
		return 0, 0, fmt.Errorf("wire: rows section truncated body (%d×%d rows, %d bytes left)", count, width, len(buf)-8)
	}
	// Width-0 rows carry no body, so the count is the only bound; an
	// existence relation never has more than one row, so a huge count
	// is corruption, not data.
	if width == 0 && count > 1<<20 {
		return 0, 0, fmt.Errorf("wire: implausible width-0 row count %d", count)
	}
	return width, count, nil
}

// DecodeIDsInto decodes the packed rows section at the head of buf,
// appending its IDs to flat — the section's rows are flat's
// width×count tail — and returning its shape, flat and the remaining
// bytes. Nothing aliases buf. A caller that pre-sizes flat keeps every
// section of a message in one allocation; passing nil allocates each
// exactly.
func DecodeIDsInto[T ~uint32](buf []byte, flat []T) (width, count int, ids []T, rest []byte, err error) {
	width, count, err = RowsShape(buf)
	if err != nil {
		return 0, 0, flat, nil, err
	}
	body := buf[8 : 8+width*count*4]
	flat = slices.Grow(flat, width*count)
	for i := 0; i < len(body); i += 4 {
		flat = append(flat, T(binary.LittleEndian.Uint32(body[i:])))
	}
	return width, count, flat, buf[8+len(body):], nil
}

// DecodeRows decodes a packed rows section from buf into freshly
// allocated rows, returning them and the remaining bytes.
func DecodeRows(buf []byte) (rows [][]uint32, rest []byte, err error) {
	width, count, flat, rest, err := DecodeIDsInto[uint32](buf, nil)
	if err != nil {
		return nil, nil, err
	}
	rows = make([][]uint32, count)
	for i := range rows {
		rows[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	return rows, rest, nil
}

// RowsSize returns the encoded size in bytes of a packed rows section.
func RowsSize(width, count int) int64 {
	return 8 + int64(width)*int64(count)*4
}
