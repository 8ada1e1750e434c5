package mat

import (
	"fmt"
	"math"
)

// Sparse is an immutable compressed-sparse-row (CSR) matrix: row i's
// entries live in colIdx/vals[rowPtr[i]:rowPtr[i+1]] with column indices
// strictly ascending. It is the storage behind the sparse solver path:
// city-scale topologies restrict the transition support to a few
// neighbors per PoI, so the Markov systems the optimizer solves are
// overwhelmingly zero and a CSR factorization beats the dense O(M³)
// reference well before M = 256 (see DESIGN.md §11 for the measured
// crossover).
type Sparse struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int32
	vals       []float64
}

// FromDense converts a dense matrix to CSR, keeping entries whose
// magnitude exceeds droptol (droptol = 0 keeps every nonzero exactly, so
// the round trip through ToDense is bit-for-bit lossless).
func FromDense(a *Matrix, droptol float64) *Sparse {
	if droptol < 0 {
		droptol = 0
	}
	s := &Sparse{
		rows:   a.rows,
		cols:   a.cols,
		rowPtr: make([]int, a.rows+1),
	}
	nnz := 0
	for _, v := range a.data {
		if v != 0 && math.Abs(v) > droptol {
			nnz++
		}
	}
	s.colIdx = make([]int32, 0, nnz)
	s.vals = make([]float64, 0, nnz)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			if v != 0 && math.Abs(v) > droptol {
				s.colIdx = append(s.colIdx, int32(j))
				s.vals = append(s.vals, v)
			}
		}
		s.rowPtr[i+1] = len(s.vals)
	}
	return s
}

// FromDenseMask converts a dense matrix to CSR keeping exactly the
// entries where mask is nonzero, regardless of a's values there (a zero
// inside the support is stored explicitly). mask must share a's shape.
func FromDenseMask(a, mask *Matrix) (*Sparse, error) {
	if mask.rows != a.rows || mask.cols != a.cols {
		return nil, fmt.Errorf("%w: mask %dx%d for matrix %dx%d",
			ErrDimension, mask.rows, mask.cols, a.rows, a.cols)
	}
	s := &Sparse{
		rows:   a.rows,
		cols:   a.cols,
		rowPtr: make([]int, a.rows+1),
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		mrow := mask.data[i*a.cols : (i+1)*a.cols]
		for j := range arow {
			if mrow[j] != 0 {
				s.colIdx = append(s.colIdx, int32(j))
				s.vals = append(s.vals, arow[j])
			}
		}
		s.rowPtr[i+1] = len(s.vals)
	}
	return s, nil
}

// NewSparseFromRows builds a CSR matrix from per-row (column, value)
// pairs. Each row's columns must be strictly ascending and in range; the
// markov solver uses this to assemble its shifted systems without a dense
// intermediate.
func NewSparseFromRows(rows, cols int, rowCols [][]int32, rowVals [][]float64) (*Sparse, error) {
	s := &Sparse{}
	if err := s.SetRows(rows, cols, rowCols, rowVals); err != nil {
		return nil, err
	}
	return s, nil
}

// SetRows rebuilds s in place from per-row (column, value) pairs under
// the contract of NewSparseFromRows, reusing s's storage: an owner that
// reassembles a same-sized system for every solve allocates nothing once
// the capacities have grown to fit. It is the one exception to Sparse's
// immutability, so s must not be shared while it is rebuilt. On error s
// is left unusable until the next successful SetRows.
func (s *Sparse) SetRows(rows, cols int, rowCols [][]int32, rowVals [][]float64) error {
	if len(rowCols) != rows || len(rowVals) != rows {
		return fmt.Errorf("%w: %d row slices for %d rows", ErrDimension, len(rowCols), rows)
	}
	s.rows, s.cols = rows, cols
	if cap(s.rowPtr) < rows+1 {
		s.rowPtr = make([]int, rows+1)
	}
	s.rowPtr = s.rowPtr[:rows+1]
	s.rowPtr[0] = 0
	s.colIdx, s.vals = s.colIdx[:0], s.vals[:0]
	for i := 0; i < rows; i++ {
		if len(rowCols[i]) != len(rowVals[i]) {
			return fmt.Errorf("%w: row %d has %d cols, %d vals",
				ErrDimension, i, len(rowCols[i]), len(rowVals[i]))
		}
		prev := int32(-1)
		for _, c := range rowCols[i] {
			if c <= prev || int(c) >= cols {
				return fmt.Errorf("%w: row %d column %d out of order or range", ErrDimension, i, c)
			}
			prev = c
		}
		s.colIdx = append(s.colIdx, rowCols[i]...)
		s.vals = append(s.vals, rowVals[i]...)
		s.rowPtr[i+1] = len(s.vals)
	}
	return nil
}

// Rows returns the number of rows.
func (s *Sparse) Rows() int { return s.rows }

// Cols returns the number of columns.
func (s *Sparse) Cols() int { return s.cols }

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int { return len(s.vals) }

// Row returns the stored columns and values of row i. The slices alias
// the matrix's storage and must not be mutated.
func (s *Sparse) Row(i int) ([]int32, []float64) {
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	return s.colIdx[lo:hi], s.vals[lo:hi]
}

// At returns the entry at (i, j), zero when it is not stored. Row entries
// are column-sorted, so a binary search would do; rows are short enough
// that a linear scan wins.
func (s *Sparse) At(i, j int) float64 {
	cols, vals := s.Row(i)
	for k, c := range cols {
		if int(c) == j {
			return vals[k]
		}
		if int(c) > j {
			break
		}
	}
	return 0
}

// MulVecTo computes the sparse matrix-vector product s*x into dst, which
// must not alias x. It performs no allocations.
func (s *Sparse) MulVecTo(dst, x []float64) error {
	if len(x) != s.cols {
		return fmt.Errorf("%w: spmv %dx%d by vector of %d", ErrDimension, s.rows, s.cols, len(x))
	}
	if len(dst) != s.rows {
		return fmt.Errorf("%w: spmv into vector of %d, want %d", ErrDimension, len(dst), s.rows)
	}
	for i := 0; i < s.rows; i++ {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		var acc float64
		for k := lo; k < hi; k++ {
			acc += s.vals[k] * x[s.colIdx[k]]
		}
		dst[i] = acc
	}
	return nil
}

// MulVecTransTo computes the transposed product sᵀ*x into dst (dst must
// not alias x), streaming the CSR rows once.
func (s *Sparse) MulVecTransTo(dst, x []float64) error {
	if len(x) != s.rows {
		return fmt.Errorf("%w: spmv-t %dx%d by vector of %d", ErrDimension, s.rows, s.cols, len(x))
	}
	if len(dst) != s.cols {
		return fmt.Errorf("%w: spmv-t into vector of %d, want %d", ErrDimension, len(dst), s.cols)
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < s.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			dst[s.colIdx[k]] += xi * s.vals[k]
		}
	}
	return nil
}

// Transpose returns sᵀ as a new CSR matrix (two-pass bucket counting, so
// the result's rows are column-sorted without an explicit sort).
func (s *Sparse) Transpose() *Sparse {
	t := &Sparse{
		rows:   s.cols,
		cols:   s.rows,
		rowPtr: make([]int, s.cols+1),
		colIdx: make([]int32, len(s.colIdx)),
		vals:   make([]float64, len(s.vals)),
	}
	for _, c := range s.colIdx {
		t.rowPtr[c+1]++
	}
	for i := 0; i < t.rows; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := make([]int, t.rows)
	for i := range next {
		next[i] = t.rowPtr[i]
	}
	for i := 0; i < s.rows; i++ {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			c := s.colIdx[k]
			pos := next[c]
			next[c]++
			t.colIdx[pos] = int32(i)
			t.vals[pos] = s.vals[k]
		}
	}
	return t
}

// ToDense writes the sparse matrix into the caller-owned dense dst,
// zeroing unstored entries.
func (s *Sparse) ToDense(dst *Matrix) error {
	if dst.rows != s.rows || dst.cols != s.cols {
		return fmt.Errorf("%w: densify %dx%d into %dx%d", ErrDimension, s.rows, s.cols, dst.rows, dst.cols)
	}
	for i := range dst.data {
		dst.data[i] = 0
	}
	for i := 0; i < s.rows; i++ {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		drow := dst.data[i*s.cols : (i+1)*s.cols]
		for k := lo; k < hi; k++ {
			drow[s.colIdx[k]] = s.vals[k]
		}
	}
	return nil
}

// Dense returns the sparse matrix as a fresh dense matrix.
func (s *Sparse) Dense() *Matrix {
	out := New(s.rows, s.cols)
	_ = s.ToDense(out)
	return out
}
