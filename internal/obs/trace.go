package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// RequestIDHeader is the HTTP header carrying a request's trace id; inbound
// values are honoured, and every response echoes the id it served under.
const RequestIDHeader = "X-Request-ID"

// fallbackSeq disambiguates ids if the system entropy source ever fails.
var fallbackSeq atomic.Uint64

// NewRequestID returns a 16-hex-character random request id.
func NewRequestID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable on Linux; degrade to
		// a unique-but-guessable id rather than failing the request.
		binary.LittleEndian.PutUint64(b[:], fallbackSeq.Add(1))
	}
	var id [16]byte // encoded on the stack: the id costs the string it returns
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// AppendID appends v as a 16-hex-character id. Ids derived from one random
// draw this way (v, v+1, …) key nothing; they only have to differ within a
// trace.
func AppendID(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return hex.AppendEncode(dst, b[:])
}

// MS converts a duration to float64 milliseconds, the unit every latency
// metric in this codebase uses.
func MS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
