package modelserver

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"env2vec/internal/obs"
)

// openDurable opens a durable registry in dir, failing the test on error.
func openDurable(t *testing.T, dir string, opts ...Option) *Registry {
	t.Helper()
	r, err := OpenRegistry(append([]Option{WithDir(dir)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// publishK publishes versions 1..k of each name, round-robin so the log
// interleaves names the way concurrent build chains would.
func publishK(t *testing.T, r *Registry, names []string, k int) {
	t.Helper()
	for v := 1; v <= k; v++ {
		for _, name := range names {
			n, err := r.Publish(name, demoSnapshot(int64(v)), int64(100*v))
			if err != nil || n != v {
				t.Fatalf("publish %s: got v%d err %v, want v%d", name, n, err, v)
			}
		}
	}
}

// assertVersions checks every version of every name survives with intact
// payloads (round-tripping the snapshot through the registry's gob bytes).
func assertVersions(t *testing.T, r *Registry, names []string, k int) {
	t.Helper()
	for _, name := range names {
		latest, err := r.Latest(name)
		if err != nil || latest.Number != k {
			t.Fatalf("%s latest: %+v %v, want v%d", name, latest.Number, err, k)
		}
		for v := 1; v <= k; v++ {
			got, err := r.Get(name, v)
			if err != nil {
				t.Fatalf("%s v%d lost: %v", name, v, err)
			}
			want, _ := demoSnapshot(int64(v)).Bytes()
			if !bytes.Equal(got.Data, want) || got.Created != int64(100*v) {
				t.Fatalf("%s v%d corrupted after reopen", name, v)
			}
		}
	}
}

// TestRegistryKillAndRestart proves durability without a clean shutdown:
// the first registry is simply abandoned (no Close), the way a killed
// daemon would leave it, and a second open must replay every committed
// version — Publish fsyncs before returning, so committed means survivable.
func TestRegistryKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	names := []string{"env2vec", "fw-smoke", "lb-soak", "dpi-regress"}
	const k = 3

	r1 := openDurable(t, dir)
	publishK(t, r1, names, k)
	// No Close: simulate kill -9 by dropping the handle on the floor.

	r2 := openDurable(t, dir)
	defer r2.Close()
	if rec := r2.RecoveredRecords(); rec != 0 {
		t.Fatalf("clean logs reported %d recovered records", rec)
	}
	assertVersions(t, r2, names, k)
	if got := r2.Names(); len(got) != len(names) {
		t.Fatalf("names after restart: %v", got)
	}
	r1.Close()
}

// TestCrashRecoveryCorruptTail is the crash-recovery battery: publish K
// versions of three names, then damage the store tail two ways — a flipped
// byte (failed checksum) and a truncated record (torn write) — and prove
// the reopened registry serves every intact version, quarantines the tail
// instead of serving it, counts it in env2vec_registry_recovered_records,
// and keeps accepting publishes that are durable in turn.
func TestCrashRecoveryCorruptTail(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"flipped-byte", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x40 // inside the last record's payload
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated-record", func(t *testing.T, path string) {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-7); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// publishK goes round-robin, so the log's tail record is the
			// last-published name's v3.
			names := []string{"env2vec", "nat-soak", "fw-smoke"}
			const k = 3
			const victim = "fw-smoke"

			r1 := openDurable(t, dir)
			publishK(t, r1, names, k)
			if err := r1.Close(); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, filepath.Join(dir, logName))

			r2 := openDurable(t, dir)
			defer r2.Close()
			if rec := r2.RecoveredRecords(); rec != 1 {
				t.Fatalf("recovered records = %d, want 1", rec)
			}
			// The metric surface reports the quarantine.
			oreg := obs.NewRegistry()
			r2.Instrument(oreg)
			var page strings.Builder
			if _, err := oreg.WriteTo(&page); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(page.String(), "env2vec_registry_recovered_records 1") {
				t.Fatalf("metric missing from exposition:\n%s", page.String())
			}

			// The victim lost exactly its torn tail version; everything else
			// is intact.
			latest, err := r2.Latest(victim)
			if err != nil || latest.Number != k-1 {
				t.Fatalf("victim latest: %+v %v, want v%d", latest, err, k-1)
			}
			for _, name := range names[:2] {
				if v, err := r2.Latest(name); err != nil || v.Number != k {
					t.Fatalf("%s latest after recovery: %+v %v", name, v, err)
				}
			}
			// The torn bytes are preserved, not destroyed.
			quarantine := filepath.Join(dir, quarantineName)
			if st, err := os.Stat(quarantine); err != nil || st.Size() == 0 {
				t.Fatalf("quarantine file: %v", err)
			}

			// The registry keeps working: a fresh publish takes the vacated
			// number and survives yet another restart.
			n, err := r2.Publish(victim, demoSnapshot(99), 999)
			if err != nil || n != k {
				t.Fatalf("publish after recovery: v%d %v", n, err)
			}
			if err := r2.Close(); err != nil {
				t.Fatal(err)
			}
			r3 := openDurable(t, dir)
			defer r3.Close()
			if rec := r3.RecoveredRecords(); rec != 0 {
				t.Fatalf("repair was not persistent: %d recovered on third open", rec)
			}
			v, err := r3.Get(victim, k)
			if err != nil || v.Created != 999 {
				t.Fatalf("post-recovery publish lost: %+v %v", v, err)
			}
		})
	}
}

// TestShardedLayoutRefusedThenMigrated builds a directory the way the
// sharded registry left it — a MANIFEST and one log per shard, each name on
// exactly one shard in publish order — and holds OpenRegistry to refusing
// it with ErrShardedLayout, then to the migration its message names:
// concatenating the shard logs into one log loses no version's bytes or
// Created stamp.
func TestShardedLayoutRefusedThenMigrated(t *testing.T) {
	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, "MANIFEST"), []byte("shards=3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	shardOf := map[string]int{"env2vec": 0, "fw-smoke": 1, "lb-soak": 2, "nat-soak": 1}
	const k = 3
	shards := make([][]Version, 3)
	for v := 1; v <= k; v++ {
		for _, name := range []string{"env2vec", "fw-smoke", "lb-soak", "nat-soak"} {
			data, _ := demoSnapshot(int64(v)).Bytes()
			shards[shardOf[name]] = append(shards[shardOf[name]], Version{Name: name, Number: v, Data: data, Created: int64(100 * v)})
		}
	}
	for i, records := range shards {
		writeLog(t, filepath.Join(old, fmt.Sprintf("shard-%02d", i)), records...) // encodeRecord, one after another
	}

	_, err := OpenRegistry(WithDir(old))
	if !errors.Is(err, ErrShardedLayout) {
		t.Fatalf("sharded directory opened: %v", err)
	}
	if !strings.Contains(err.Error(), "cat "+old+"/shard-*/log > NEWDIR/log") {
		t.Fatalf("refusal does not say how to migrate: %v", err)
	}
	if _, err := os.Stat(filepath.Join(old, logName)); !os.IsNotExist(err) {
		t.Fatalf("refusal wrote into the old directory: %v", err)
	}

	// cat DIR/shard-*/log > NEWDIR/log, in the shell's glob order.
	shardLogs, err := filepath.Glob(filepath.Join(old, "shard-*", logName))
	if err != nil || len(shardLogs) != 3 {
		t.Fatalf("glob: %v %v", shardLogs, err)
	}
	var cat []byte
	for _, path := range shardLogs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cat = append(cat, data...)
	}
	migrated := t.TempDir()
	if err := os.WriteFile(filepath.Join(migrated, logName), cat, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, migrated)
	defer r.Close()
	if rec := r.RecoveredRecords(); rec != 0 {
		t.Fatalf("migrated log quarantined %d tails", rec)
	}
	assertVersions(t, r, []string{"env2vec", "fw-smoke", "lb-soak", "nat-soak"}, k)
}

// TestClosedRegistryRefusesWrites: after Close the log is gone, so a
// publish or replica import must fail instead of landing in memory only
// and vanishing on reopen. A second Close is harmless.
func TestClosedRegistryRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	r := openDurable(t, dir)
	publishK(t, r, []string{"env2vec"}, 2)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := r.Publish("env2vec", demoSnapshot(3), 300); !errors.Is(err, ErrClosed) {
		t.Fatalf("publish after Close: v%d %v, want ErrClosed", n, err)
	}
	data, _ := demoSnapshot(3).Bytes()
	if ok, err := r.importVersion(Version{Name: "env2vec", Number: 3, Data: data, Created: 300}); ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("import after Close: %v %v, want ErrClosed", ok, err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	r2 := openDurable(t, dir)
	defer r2.Close()
	assertVersions(t, r2, []string{"env2vec"}, 2)
}
