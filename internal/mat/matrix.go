// Package mat implements the dense linear algebra needed by the
// sensor-coverage optimizer: real vectors and matrices, LU decomposition
// with partial pivoting, linear solves, inverses, and the handful of norms
// and element-wise helpers the Markov-chain machinery relies on.
//
// The package is deliberately small and self-contained (standard library
// only). Matrices are row-major and sized at construction; all binary
// operations check dimensions and return errors rather than panicking, per
// the project style guide.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ErrDimension indicates that the shapes of the operands are incompatible.
var ErrDimension = errors.New("mat: dimension mismatch")

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0x0) matrix; use New or NewFromRows to build
// a usable instance.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero-filled matrix with the given shape.
// It panics if either dimension is negative, mirroring make's behavior for
// invalid sizes (a programming error, not a runtime condition).
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{
		rows: rows,
		cols: cols,
		data: make([]float64, rows*cols),
	}
}

// NewFromRows builds a matrix from a slice of equal-length rows, copying
// the data. It returns an error if the rows are ragged or empty.
func NewFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: no rows", ErrDimension)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrDimension, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// SetRow copies the given values into row i.
// It panics if the length does not match the column count (a programming
// error at the call site).
func (m *Matrix) SetRow(i int, row []float64) {
	if len(row) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d, want %d", len(row), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], row)
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom overwrites m with the contents of src.
// The shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) error {
	if m.rows != src.rows || m.cols != src.cols {
		return fmt.Errorf("%w: copy %dx%d into %dx%d", ErrDimension, src.rows, src.cols, m.rows, m.cols)
	}
	copy(m.data, src.data)
	return nil
}

// Zero sets every entry to zero.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// IsSquare reports whether the matrix has the same number of rows and
// columns.
func (m *Matrix) IsSquare() bool { return m.rows == m.cols }

// Data exposes the backing slice of the matrix in row-major order.
// It is intended for tight numeric loops inside this module; callers must
// not resize it.
func (m *Matrix) Data() []float64 { return m.data }

// String renders the matrix with aligned, fixed-precision columns, which
// keeps optimizer traces readable in CLI output.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatFloat(m.data[i*m.cols+j], 'f', 6, 64))
		}
		b.WriteByte(']')
		if i < m.rows-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// EqualApprox reports whether a and b have the same shape and all entries
// differ by at most tol.
func EqualApprox(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// two same-shaped matrices. It returns +Inf when shapes differ so that the
// result is still usable in comparisons.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		return math.Inf(1)
	}
	var maxDiff float64
	for i := range a.data {
		if d := math.Abs(a.data[i] - b.data[i]); d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff
}
