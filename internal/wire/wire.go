// Package wire is the binary serving protocol: a length-prefixed,
// CRC-32C-framed exchange that carries batched predict requests and
// responses with no JSON on the hot path, plus a subscribe mode where a
// client holds one persistent connection per environment and streams
// windows in / predictions out — the natural shape for a testbed agent
// sampling every 15 minutes at fleet scale.
//
// The framing reuses the idiom proven in the model registry's on-disk log
// (internal/modelserver/store.go): a fixed header carrying magic, length,
// and a Castagnoli checksum, followed by a uvarint/fixed-width payload
// whose decoder bounds-checks every length so arbitrary bytes can never
// panic or over-allocate (FuzzWireDecode holds it to that).
//
// Frame layout (header 14 bytes, big-endian):
//
//	magic   uint32  "E2VW"
//	type    uint8   frame type (FrameHello ... FramePrediction)
//	flags   uint8   reserved, must be 0
//	length  uint32  payload bytes (bounded by DefaultMaxPayload)
//	crc     uint32  CRC-32C (Castagnoli) of the payload
//	payload length bytes
//
// A connection opens with Hello/HelloAck version-and-feature negotiation,
// then speaks either batched request/response (FramePredictBatch →
// FramePredictReplies) or, after FrameSubscribe/FrameSubscribeAck pins an
// environment tuple, streaming windows (FrameWindow → FramePrediction,
// correlated by sequence number, pipelined). Request ids and traceparent
// fields travel in the payloads, so distributed-trace stitching works
// exactly as on the JSON path.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ProtocolVersion is negotiated in Hello/HelloAck. A server rejects a
// client whose version it does not speak with FrameError + ErrVersion.
const ProtocolVersion = 1

// Feature bits advertised in HelloAck.
const (
	// FeatureBatch: the peer serves FramePredictBatch.
	FeatureBatch uint64 = 1 << 0
	// FeatureSubscribe: the peer serves FrameSubscribe streaming.
	FeatureSubscribe uint64 = 1 << 1
)

// Frame types.
const (
	FrameHello        = 0x01 // c→s: uvarint version, uvarint features
	FrameHelloAck     = 0x02 // s→c: uvarint version, uvarint features
	FrameError        = 0x0f // s→c: uvarint code, uvarint seq (0 = connection-level), string message
	FramePredictBatch = 0x10 // c→s: batched predict requests
	FramePredictReply = 0x11 // s→c: batched predict responses
	FrameSubscribe    = 0x20 // c→s: environment tuple + chain id
	FrameSubscribeAck = 0x21 // s→c: model name, version, in, window
	FrameWindow       = 0x22 // c→s: seq, request id, cf, window, optional actual
	FramePrediction   = 0x23 // s→c: seq, status, prediction or error
)

const (
	frameMagic      = 0x45325657 // "E2VW"
	frameHeaderSize = 14

	// DefaultMaxPayload bounds one frame's payload; anything larger in a
	// header is treated as hostile rather than attempted as an allocation.
	DefaultMaxPayload = 16 << 20

	// MaxBatchItems bounds the requests one FramePredictBatch may carry;
	// larger counts are corrupt or hostile, not a bigger allocation.
	MaxBatchItems = 4096
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Typed protocol errors. Every decode failure surfaces as (or wraps) one
// of these — never a panic, never a silent zero value.
var (
	ErrBadMagic  = errors.New("wire: bad frame magic")
	ErrBadCRC    = errors.New("wire: frame checksum mismatch")
	ErrTooLarge  = errors.New("wire: frame payload exceeds cap")
	ErrTruncated = errors.New("wire: truncated frame")
	ErrCorrupt   = errors.New("wire: corrupt payload")
	ErrVersion   = errors.New("wire: unsupported protocol version")
)

// Frame is one decoded frame: its type byte and raw payload.
type Frame struct {
	Type    byte
	Payload []byte
}

// putHeader fills hdr with the frame header for payload.
func putHeader(hdr []byte, typ byte, payload []byte) {
	binary.BigEndian.PutUint32(hdr[0:4], frameMagic)
	hdr[4] = typ
	hdr[5] = 0
	binary.BigEndian.PutUint32(hdr[6:10], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[10:14], crc32.Checksum(payload, castagnoli))
}

// AppendFrame renders one frame (header + payload) onto dst.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	putHeader(hdr[:], typ, payload)
	return append(append(dst, hdr[:]...), payload...)
}

// WriteFrame writes one frame into w: the header is built in w's own spare
// buffer space and the payload follows it, so framing copies the payload
// once (into w) and allocates nothing. The caller flushes.
func WriteFrame(w *bufio.Writer, typ byte, payload []byte) error {
	if w.Available() < frameHeaderSize {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	hdr := w.AvailableBuffer()[:frameHeaderSize]
	putHeader(hdr, typ, payload)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// maxKeptBuffer bounds the read buffer a connection holds between frames:
// a larger frame gets storage of its own, so one hostile 16 MiB frame does
// not cost its connection 16 MiB for good.
const maxKeptBuffer = 1 << 20

// ReadFrame reads exactly one frame from r, enforcing maxPayload (≤ 0
// means DefaultMaxPayload). A connection passes the same buf for every
// frame: the payload is read into *buf (which grows to the largest frame
// seen, up to maxKeptBuffer) and is valid until the next call with it —
// decoders copy what they keep. A nil buf gets a fresh allocation per
// frame. io.EOF is returned untouched on a clean boundary; a partial frame
// surfaces as ErrTruncated.
func ReadFrame(r *bufio.Reader, maxPayload int, buf *[]byte) (Frame, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	// The header is read where it lies in r's buffer: nothing is copied, and
	// nothing escapes to the heap per frame.
	hdr, err := r.Peek(frameHeaderSize)
	if err != nil {
		if len(hdr) == 0 && errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	magic, typ := binary.BigEndian.Uint32(hdr[0:4]), hdr[4]
	length, sum := int(binary.BigEndian.Uint32(hdr[6:10])), binary.BigEndian.Uint32(hdr[10:14])
	_, _ = r.Discard(frameHeaderSize) // peeked: cannot fail
	if magic != frameMagic {
		return Frame{}, ErrBadMagic
	}
	if length > maxPayload {
		return Frame{}, fmt.Errorf("%w: %d bytes (cap %d)", ErrTooLarge, length, maxPayload)
	}
	var payload []byte
	if buf != nil && length <= cap(*buf) {
		payload = (*buf)[:length]
	} else {
		payload = make([]byte, length)
		if buf != nil && length <= maxKeptBuffer {
			*buf = payload
		}
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if sum != crc32.Checksum(payload, castagnoli) {
		return Frame{}, ErrBadCRC
	}
	return Frame{Type: typ, Payload: payload}, nil
}
