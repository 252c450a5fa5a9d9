// Package stream holds a test-only method that shares its name with a used
// field.
package stream

// Record is one delivered record; Ack is set once it is acknowledged.
type Record struct{ Ack bool }

// Stream delivers records.
type Stream struct{ acked int }

// Ack acknowledges the last record. Only a test calls it.
func (s *Stream) Ack() { s.acked++ }

// Next returns the next record.
func (s *Stream) Next() Record { return Record{Ack: s.acked > 0} }
