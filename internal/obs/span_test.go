package obs

import (
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
)

// parseTraceParentSplit is ParseTraceParent as it was written before it
// stopped allocating: the reference the fuzzer holds the walk to.
func parseTraceParentSplit(v string) (traceID, spanID string, ok bool) {
	parts := strings.Split(v, "-")
	if len(parts) != 4 || parts[1] == "" || parts[2] == "" {
		return "", "", false
	}
	return parts[1], parts[2], true
}

// FuzzParseTraceParent: the IndexByte walk accepts and rejects exactly what
// the Split version did, and returns the same two substrings.
func FuzzParseTraceParent(f *testing.F) {
	for _, seed := range []string{
		"", "00-abc-def", "00-abc-def-01-02", "00--def-01", "00-abc--01",
		"00-0123456789abcdef-00000000000000aa-01", "---", "-a-b-", "a-b-c-d",
		"00-" + strings.Repeat("ab", 32<<10) + "-def-01",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		traceID, spanID, ok := ParseTraceParent(v)
		wantTrace, wantSpan, wantOK := parseTraceParentSplit(v)
		if ok != wantOK || traceID != wantTrace || spanID != wantSpan {
			t.Fatalf("ParseTraceParent(%q) = %q, %q, %v; the Split reference says %q, %q, %v",
				v, traceID, spanID, ok, wantTrace, wantSpan, wantOK)
		}
	})
}

// TestIDsAllocateWhatTheyReturn: a request id is one object — and so are the
// ids of a whole frame, which are cut from one string, given only to the
// slots that lack one, and stay unique when the entropy source fails — a
// derived span id and a stamped or parsed traceparent none beyond the
// caller's buffer.
func TestIDsAllocateWhatTheyReturn(t *testing.T) {
	// 70 slots cross two 32-id entropy reads; every third arrives with an id
	// and keeps it, every seventh is skipped.
	ids := make([]string, 70)
	fill := func() {
		for i := range ids {
			ids[i] = ""
			if i%3 == 0 {
				ids[i] = "caller-supplied"
			}
		}
		FillRequestIDs(len(ids), func(i int) *string {
			if i%7 == 0 {
				return nil
			}
			return &ids[i]
		})
	}
	fill()
	seen := map[string]bool{}
	for i, id := range ids {
		switch {
		case i%3 == 0:
			if id != "caller-supplied" {
				t.Fatalf("slot %d: a supplied id became %q", i, id)
			}
		case i%7 == 0:
			if id != "" {
				t.Fatalf("slot %d: a skipped slot got %q", i, id)
			}
		default:
			if _, err := hex.DecodeString(id); len(id) != 16 || err != nil || seen[id] {
				t.Fatalf("slot %d: id %q is not 16 hex characters or repeats", i, id)
			}
			seen[id] = true
		}
	}
	FillRequestIDs(0, nil) // an empty frame asks for nothing
	// The fallback of a failed read numbers every id of the block, and goes
	// on counting across blocks.
	var raw [3][16]byte
	for i := range raw {
		fallbackEntropy(raw[i][:])
		for _, b := range [][]byte{raw[i][:8], raw[i][8:]} {
			if id := string(AppendID(nil, binary.BigEndian.Uint64(b))); seen[id] {
				t.Fatalf("fallback id %q repeats", id)
			} else {
				seen[id] = true
			}
		}
	}

	if got := string(AppendID(nil, 0x0123456789abcdef)); got != "0123456789abcdef" {
		t.Fatalf("AppendID = %q", got)
	}
	if a, b := string(AppendID(nil, ^uint64(0))), string(AppendID(nil, 0)); a != "ffffffffffffffff" || b != "0000000000000000" {
		t.Fatalf("AppendID wraps to %q then %q", a, b)
	}
	const traceID, spanID = "0123456789abcdef", "00000000000000aa"
	want := FormatTraceParent(traceID, spanID)
	buf := make([]byte, 0, 64)
	if got := string(AppendTraceParent(buf, traceID, spanID)); got != want {
		t.Fatalf("AppendTraceParent = %q, FormatTraceParent = %q", got, want)
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in the non-race pass")
	}
	for name, c := range map[string]struct {
		max float64
		fn  func()
	}{
		"NewRequestID":      {1, func() { _ = NewRequestID() }},
		"FillRequestIDs":    {1, fill},
		"AppendID":          {0, func() { buf = AppendID(buf[:0], 42) }},
		"AppendTraceParent": {0, func() { buf = AppendTraceParent(buf[:0], traceID, spanID) }},
		"ParseTraceParent":  {0, func() { _, _, _ = ParseTraceParent(want) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n > c.max {
			t.Errorf("%s allocates %.0f objects, want at most %.0f", name, n, c.max)
		}
	}
}
