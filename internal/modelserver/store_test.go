package modelserver

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestRecordCodecRoundTrip(t *testing.T) {
	cases := []Version{
		{Name: "m", Number: 1, Created: 0, Data: nil},
		{Name: "env2vec", Number: 42, Created: 1700000000, Data: []byte{0, 1, 2, 255}},
		{Name: "a/b c", Number: 1 << 20, Created: -7, Data: bytes.Repeat([]byte("x"), 10_000)},
	}
	for _, want := range cases {
		got, err := decodePayload(encodePayload(want))
		if err != nil {
			t.Fatalf("%q v%d: %v", want.Name, want.Number, err)
		}
		if got.Name != want.Name || got.Number != want.Number || got.Created != want.Created || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("round trip mangled %+v into %+v", want, got)
		}
	}
}

func TestRecordCodecRejectsDamage(t *testing.T) {
	rec := encodePayload(Version{Name: "m", Number: 3, Created: 9, Data: []byte("weights")})
	// Truncations at every length must error, never panic.
	for i := 0; i < len(rec); i++ {
		if _, err := decodePayload(rec[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", i)
		}
	}
	// Trailing garbage is corruption, not silently ignored.
	if _, err := decodePayload(append(append([]byte(nil), rec...), 0xEE)); err == nil {
		t.Fatalf("trailing garbage decoded")
	}
	// Zero version numbers and empty names never come out of Publish.
	if _, err := decodePayload(encodePayload(Version{Name: "m", Number: 0})); err == nil {
		t.Fatalf("version 0 decoded")
	}
	if _, err := decodePayload(encodePayload(Version{Name: "", Number: 1})); err == nil {
		t.Fatalf("empty name decoded")
	}
}

// writeLog assembles a registry log from records.
func writeLog(t *testing.T, dir string, records ...Version) {
	t.Helper()
	var buf bytes.Buffer
	for _, v := range records {
		buf.Write(encodeRecord(v))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// replayAll opens the log store, collecting every intact record with the
// registry's monotonicity rule applied.
func replayAll(t *testing.T, dir string) (got []Version, recovered int) {
	t.Helper()
	r := NewRegistry()
	st, recovered, err := openLogStore(dir, func(v Version) error {
		if err := r.applyReplay(v); err != nil {
			return err
		}
		got = append(got, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	return got, recovered
}

func TestStoreReplayTruncatesNonMonotonicTail(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir,
		Version{Name: "m", Number: 1, Data: []byte("a")},
		Version{Name: "m", Number: 2, Data: []byte("b")},
		Version{Name: "m", Number: 4, Data: []byte("gap")}, // damaged ordering
		Version{Name: "m", Number: 3, Data: []byte("after")},
	)
	got, recovered := replayAll(t, dir)
	if len(got) != 2 || recovered != 1 {
		t.Fatalf("replayed %d records, recovered %d; want 2 intact + 1 quarantined tail", len(got), recovered)
	}
	// The repair is stable: a second open sees a clean log.
	got2, recovered2 := replayAll(t, dir)
	if len(got2) != 2 || recovered2 != 0 {
		t.Fatalf("second open: %d records, recovered %d", len(got2), recovered2)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineName)); err != nil {
		t.Fatalf("torn tail not preserved in quarantine: %v", err)
	}
}

func TestStoreAppendThenReplay(t *testing.T) {
	dir := t.TempDir()
	st, recovered, err := openLogStore(dir, func(Version) error { return nil })
	if err != nil || recovered != 0 {
		t.Fatalf("open empty: %d %v", recovered, err)
	}
	want := []Version{
		{Name: "m", Number: 1, Created: 10, Data: []byte("v1")},
		{Name: "m", Number: 2, Created: 20, Data: []byte("v2")},
		{Name: "other", Number: 1, Created: 30, Data: nil},
	}
	for _, v := range want {
		if err := st.append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	got, recovered := replayAll(t, dir)
	if recovered != 0 || len(got) != len(want) {
		t.Fatalf("replay: %d records, recovered %d", len(got), recovered)
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Number != want[i].Number ||
			got[i].Created != want[i].Created || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}
