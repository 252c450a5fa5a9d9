// Package tensor holds a generic type whose methods are reached through an
// instantiation, a test-only method whose name is spelled only in a string,
// an allow-listed method and a constructor that only a nested module calls.
package tensor

// Mat is a matrix of rows.
type Mat[T any] struct{ Data [][]T }

// New returns an empty matrix. Only the nested module calls it.
func New[T any]() *Mat[T] { return &Mat[T]{} }

// Rows returns the row count; the command calls it on a Mat[float64].
func (m *Mat[T]) Rows() int { return len(m.Data) }

// SliceRows returns rows [i, j). Only a test calls it.
func (m *Mat[T]) SliceRows(i, j int) *Mat[T] {
	if i > j {
		panic("tensor: SliceRows out of range")
	}
	return &Mat[T]{Data: m.Data[i:j]}
}

// RandNormal fills nothing; it stands for an allow-listed test fixture.
func (m *Mat[T]) RandNormal() {}
