package mat

import "fmt"

// Sparse is a compressed-sparse-row (CSR) matrix: row i's entries live
// in colIdx/vals[rowPtr[i]:rowPtr[i+1]] with column indices strictly
// ascending. The zero value is an empty matrix; SetRows loads it. It is
// the storage behind the sparse solver path:
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

// SetRows rebuilds s in place as a rows×cols matrix from per-row
// (column, value) pairs; each row's columns must be strictly ascending
// and in range. It reuses s's storage: an owner that reassembles a
// same-sized system for every solve — the markov solver assembles its
// shifted systems this way, without a dense intermediate — allocates
// nothing once the capacities have grown to fit. s must not be shared
// while it is rebuilt. On error s is left unusable until the next
// successful SetRows.
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

// Row returns the stored columns and values of row i. The slices alias
// the matrix's storage and must not be mutated.
func (s *Sparse) Row(i int) ([]int32, []float64) {
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	return s.colIdx[lo:hi], s.vals[lo:hi]
}
