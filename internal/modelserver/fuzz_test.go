package modelserver

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreReplay feeds arbitrary bytes to the on-disk record codec as a
// registry log and holds the store to three properties:
//
//  1. replay never panics, whatever the bytes;
//  2. whatever replays intact on a first open replays identically — with
//     nothing further quarantined — on a second open (repair is stable and
//     exact, so valid record prefixes round-trip);
//  3. every accepted record obeys the registry's invariants (monotonic
//     per-name numbering from 1).
func FuzzStoreReplay(f *testing.F) {
	// Seeds: a clean two-record log, a log with a torn tail, raw garbage,
	// and headers lying about their lengths.
	v1 := Version{Name: "m", Number: 1, Created: 10, Data: []byte("weights-1")}
	v2 := Version{Name: "m", Number: 2, Created: 20, Data: []byte("weights-2")}
	clean := append(encodeRecord(v1), encodeRecord(v2)...)
	f.Add(clean)
	f.Add(clean[:len(clean)-3])
	f.Add([]byte{})
	f.Add([]byte("not a log at all"))
	f.Add(encodeRecord(Version{Name: "m", Number: 7, Created: 1, Data: nil})) // gap from 0
	lying := append([]byte(nil), clean...)
	lying[5] ^= 0x7F // length field
	f.Add(lying)
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)-1] ^= 1 // payload byte → CRC mismatch
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}

		replay := func() ([]Version, int) {
			r := NewRegistry()
			var got []Version
			st, recovered, err := openLogStore(dir, func(v Version) error {
				if err := r.applyReplay(v); err != nil {
					return err
				}
				got = append(got, v)
				return nil
			})
			if err != nil {
				t.Fatalf("open: %v", err) // I/O only; corruption must not error
			}
			if err := st.close(); err != nil {
				t.Fatal(err)
			}
			return got, recovered
		}

		first, _ := replay()
		counts := make(map[string]int)
		for _, v := range first {
			counts[v.Name]++
			if v.Number != counts[v.Name] {
				t.Fatalf("accepted non-monotonic record: %s v%d after %d", v.Name, v.Number, counts[v.Name]-1)
			}
			if v.Name == "" {
				t.Fatal("accepted record with empty name")
			}
		}

		second, recovered2 := replay()
		if recovered2 != 0 {
			t.Fatalf("repair unstable: second open quarantined again")
		}
		if len(second) != len(first) {
			t.Fatalf("replay not idempotent: %d then %d records", len(first), len(second))
		}
		for i := range first {
			a, b := first[i], second[i]
			if a.Name != b.Name || a.Number != b.Number || a.Created != b.Created || !bytes.Equal(a.Data, b.Data) {
				t.Fatalf("record %d changed across reopens: %+v vs %+v", i, a, b)
			}
		}
	})
}
