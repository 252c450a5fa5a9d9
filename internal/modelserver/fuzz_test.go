package modelserver

import (
	"bytes"
	"testing"
)

// FuzzStoreReplay feeds arbitrary bytes to the log replay as a registry
// log, in memory (the file-level quarantine and reopen are
// TestCrashRecoveryCorruptTail's), and holds it to three properties:
//
//  1. replay never panics, whatever the bytes;
//  2. the intact prefix it stops at replays whole and identically on its
//     own: replayLog(data[:off]) returns off and the same records (the
//     repaired log a reopen reads, so valid record prefixes round-trip);
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
		replay := func(data []byte) ([]Version, int) {
			r := NewRegistry()
			var got []Version
			off := replayLog(data, func(v Version) error {
				if err := r.applyReplay(v); err != nil {
					return err
				}
				got = append(got, v)
				return nil
			})
			return got, off
		}

		first, off := replay(data)
		if off < 0 || off > len(data) {
			t.Fatalf("replay stopped at %d of %d bytes", off, len(data))
		}
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

		second, off2 := replay(data[:off])
		if off2 != off {
			t.Fatalf("repair unstable: the intact prefix of %d bytes replays to %d", off, off2)
		}
		if len(second) != len(first) {
			t.Fatalf("replay not idempotent: %d then %d records", len(first), len(second))
		}
		for i := range first {
			a, b := first[i], second[i]
			if a.Name != b.Name || a.Number != b.Number || a.Created != b.Created || !bytes.Equal(a.Data, b.Data) {
				t.Fatalf("record %d changed across replays: %+v vs %+v", i, a, b)
			}
		}
	})
}
