package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix. The benchmark kernels use tall
// skinny factor matrices (rows = a mode size, Cols = R, typically 16).
type Matrix struct {
	Rows, Cols int
	Data       []Value
}

// NewMatrix returns a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: NewMatrix with negative size")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]Value, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) Value { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v Value) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i.
func (m *Matrix) Row(i int) []Value { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Fill sets every element to v.
func (m *Matrix) Fill(v Value) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Zero clears the matrix.
func (m *Matrix) Zero() { m.Fill(0) }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]Value(nil), m.Data...)}
}

// Randomize fills the matrix with uniform values in [0, 1) from rng.
func (m *Matrix) Randomize(rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = Value(rng.Float64())
	}
}

// StorageBytes returns the dense footprint in bytes.
func (m *Matrix) StorageBytes() int64 { return 4 * int64(len(m.Data)) }

func (m *Matrix) String() string { return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols) }

// Vector is a dense vector of single-precision values.
type Vector []Value

// NewVector returns a zeroed vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// RandomVector returns a vector with uniform values in [0, 1) from rng.
func RandomVector(n int, rng *rand.Rand) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = Value(rng.Float64())
	}
	return v
}

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Norm2 returns the Euclidean norm computed in float64 for stability.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}
