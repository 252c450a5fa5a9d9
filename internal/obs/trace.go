package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"sync/atomic"
	"time"
)

// RequestIDHeader is the HTTP header carrying a request's trace id; inbound
// values are honoured, and every response echoes the id it served under.
// It is spelled in canonical form, as net/http writes it on the wire: a
// Header.Get or Set of any other spelling allocates the canonical copy.
const RequestIDHeader = "X-Request-Id"

// fallbackSeq disambiguates ids if the system entropy source ever fails.
var fallbackSeq atomic.Uint64

// NewRequestID returns a 16-hex-character random request id.
func NewRequestID() string { return newIDBlock(1) }

// FillRequestIDs gives a fresh request id to every empty string among
// at(0) … at(n−1); a nil pointer is skipped. The ids of one call are cut
// from one string — one random read and one allocation for a frame, not one
// of each per window — so, like the strings of a decoded frame, an id kept
// past the request that carried it should be cloned.
func FillRequestIDs(n int, at func(i int) *string) {
	missing := 0
	for i := 0; i < n; i++ {
		if p := at(i); p != nil && *p == "" {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	block := newIDBlock(missing)
	for i := 0; i < n; i++ {
		if p := at(i); p != nil && *p == "" {
			*p, block = block[:16], block[16:]
		}
	}
}

// newIDBlock returns k ids back to back, the only allocation the string
// itself.
func newIDBlock(k int) string {
	var sb strings.Builder
	sb.Grow(16 * k)
	var enc [16 * 32]byte
	for ; k > 0; k -= 32 {
		sb.Write(AppendRequestIDs(enc[:0], min(k, 32)))
	}
	return sb.String()
}

// AppendRequestIDs appends k fresh request ids back to back, 16 hex
// characters each, for a caller that holds ids as bytes (the proxy's wire
// front, filling a frame's missing ids into a buffer it reuses). Entropy is
// read 32 ids at a time through a stack buffer.
func AppendRequestIDs(dst []byte, k int) []byte {
	var raw [8 * 32]byte
	for ; k > 0; k -= 32 {
		b := raw[:8*min(k, 32)]
		if _, err := crand.Read(b); err != nil {
			// Entropy exhaustion is effectively unreachable on Linux; degrade
			// to unique-but-guessable ids rather than failing the request.
			fallbackEntropy(b)
		}
		dst = hex.AppendEncode(dst, b)
	}
	return dst
}

func fallbackEntropy(b []byte) {
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, fallbackSeq.Add(1))
	}
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
