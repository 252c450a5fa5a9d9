package modelserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// On-disk layout. A durable registry owns one directory whose `log` file
// is an append-only sequence of records:
//
//	magic   uint32 big-endian  "E2VR"
//	length  uint32 big-endian  payload bytes
//	crc     uint32 big-endian  CRC-32C (Castagnoli) of the payload
//	payload uvarint(len(name)) name
//	        uvarint number
//	        varint  created (unix seconds)
//	        uvarint(len(data)) data (gob-encoded nn.Snapshot)
//
// A version is committed once its record reaches the log in a single write
// followed by fsync; Publish does not return before both. Replay on open
// walks the log record by record, so a crash mid-append leaves at worst a
// torn tail that fails the magic/length/CRC checks. The torn bytes are
// preserved in the directory's `quarantine` file and the log is repaired by
// writing the intact prefix to `log.tmp` and renaming it over `log` — the
// rename is atomic, so a crash mid-repair still leaves every intact record
// readable on the next open.

const (
	recordMagic      = 0x45325652 // "E2VR"
	recordHeaderSize = 12
	// maxRecordPayload bounds a single record; anything larger in a header
	// is treated as corruption rather than attempted as one allocation.
	maxRecordPayload = 1 << 30

	logName        = "log"
	quarantineName = "quarantine"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorruptRecord marks any defect the replay loop treats as a torn tail.
var errCorruptRecord = errors.New("modelserver: corrupt store record")

// encodeRecord renders one version as a framed, checksummed log record.
func encodeRecord(v Version) []byte {
	payload := encodePayload(v)
	buf := make([]byte, recordHeaderSize, recordHeaderSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], recordMagic)
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[8:12], crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

func encodePayload(v Version) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(v.Name)))
	buf = append(buf, v.Name...)
	buf = binary.AppendUvarint(buf, uint64(v.Number))
	buf = binary.AppendVarint(buf, v.Created)
	buf = binary.AppendUvarint(buf, uint64(len(v.Data)))
	return append(buf, v.Data...)
}

// decodePayload is the strict inverse of encodePayload: every length is
// bounds-checked against the remaining bytes and trailing garbage is an
// error, so arbitrary input can never panic or silently round-trip wrong
// (FuzzStoreReplay holds it to that).
func decodePayload(p []byte) (Version, error) {
	var v Version
	nameLen, n := binary.Uvarint(p)
	if n <= 0 || nameLen == 0 || nameLen > uint64(len(p)-n) {
		return v, fmt.Errorf("%w: name length", errCorruptRecord)
	}
	p = p[n:]
	v.Name = string(p[:nameLen])
	p = p[nameLen:]
	num, n := binary.Uvarint(p)
	if n <= 0 || num == 0 || num > math.MaxInt32 {
		return v, fmt.Errorf("%w: version number", errCorruptRecord)
	}
	v.Number = int(num)
	p = p[n:]
	created, n := binary.Varint(p)
	if n <= 0 {
		return v, fmt.Errorf("%w: created timestamp", errCorruptRecord)
	}
	v.Created = created
	p = p[n:]
	dataLen, n := binary.Uvarint(p)
	if n <= 0 || dataLen != uint64(len(p)-n) {
		return v, fmt.Errorf("%w: data length", errCorruptRecord)
	}
	v.Data = append([]byte(nil), p[n:]...)
	return v, nil
}

// logStore is the registry's open append-only log.
type logStore struct {
	dir string
	f   *os.File
}

// openLogStore creates dir if needed, replays its log (replayLog) and
// quarantines + truncates any tail the replay stopped at. recovered reports
// whether a tail was quarantined (0 or 1).
func openLogStore(dir string, apply func(Version) error) (st *logStore, recovered int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("modelserver: store dir: %w", err)
	}
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, fmt.Errorf("modelserver: read store log: %w", err)
	}
	off := replayLog(data, apply)
	if off < len(data) {
		if err := quarantineTail(dir, path, data, off); err != nil {
			return nil, 0, err
		}
		recovered = 1
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("modelserver: open store log: %w", err)
	}
	return &logStore{dir: dir, f: f}, recovered, nil
}

// replayLog decodes the records at the head of data in order, delivering
// each to apply, and returns the offset of the first byte it did not accept
// (len(data) when the whole log is intact). apply rejecting a record (e.g. a
// non-monotonic version number) ends the replay exactly like a failed
// checksum: everything from that record on is a tail the registry must not
// serve.
func replayLog(data []byte, apply func(Version) error) (off int) {
	for off < len(data) {
		rest := data[off:]
		if len(rest) < recordHeaderSize {
			break
		}
		if binary.BigEndian.Uint32(rest[0:4]) != recordMagic {
			break
		}
		length := int(binary.BigEndian.Uint32(rest[4:8]))
		if length > maxRecordPayload || length > len(rest)-recordHeaderSize {
			break
		}
		payload := rest[recordHeaderSize : recordHeaderSize+length]
		if binary.BigEndian.Uint32(rest[8:12]) != crc32.Checksum(payload, castagnoli) {
			break
		}
		v, err := decodePayload(payload)
		if err != nil {
			break
		}
		if err := apply(v); err != nil {
			break
		}
		off += recordHeaderSize + length
	}
	return off
}

// quarantineTail preserves the unreadable suffix of the log in the
// directory's quarantine file, then replaces the log with its intact prefix via
// tmp+rename so the repair itself is crash-atomic.
func quarantineTail(dir, path string, data []byte, off int) error {
	q, err := os.OpenFile(filepath.Join(dir, quarantineName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("modelserver: quarantine: %w", err)
	}
	// After the rename below the quarantine file holds the only copy of
	// the tail, so it reaches the disk first.
	if _, err := q.Write(data[off:]); err != nil {
		q.Close()
		return fmt.Errorf("modelserver: quarantine: %w", err)
	}
	if err := q.Sync(); err != nil {
		q.Close()
		return fmt.Errorf("modelserver: quarantine: %w", err)
	}
	if err := q.Close(); err != nil {
		return fmt.Errorf("modelserver: quarantine: %w", err)
	}
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, data[:off]); err != nil {
		return fmt.Errorf("modelserver: repair log: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("modelserver: repair log: %w", err)
	}
	return syncDir(dir)
}

// append commits one record: single write, then fsync. The caller holds the
// registry lock, so records never interleave.
func (st *logStore) append(v Version) error {
	if _, err := st.f.Write(encodeRecord(v)); err != nil {
		return fmt.Errorf("modelserver: append record: %w", err)
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("modelserver: sync record: %w", err)
	}
	return nil
}

func (st *logStore) close() error {
	return st.f.Close()
}

// writeFileSync is os.WriteFile plus fsync before close, so the rename that
// follows publishes fully durable bytes.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir flushes directory metadata (the rename) to disk; filesystems that
// do not support fsync on directories are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
