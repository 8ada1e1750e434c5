package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular indicates that a matrix factored as numerically singular and
// cannot be solved or inverted.
var ErrSingular = errors.New("mat: singular matrix")

// LU holds an LU decomposition with partial pivoting, PA = LU, of a square
// matrix. L has a unit diagonal and is stored in the strict lower triangle
// of lu; U occupies the upper triangle including the diagonal.
//
// An LU built with NewLU owns all of its storage and can be refactored
// repeatedly with Refactor without further allocation, which is what the
// optimizer's evaluation workspace relies on.
type LU struct {
	lu    *Matrix
	pivot []int
	sign  float64   // +1 or -1 with the parity of the permutation
	col   []float64 // per-column scratch for SolveTo/InverseTo
	batch []float64 // packed multi-column scratch, lazily sized n*luBatchCols
	scale []float64 // per-row input max magnitudes for the pivot guard
}

// MinPivotRatio is the scaled near-singularity threshold of Refactor: a
// selected pivot whose magnitude falls below this fraction of its row's
// largest input magnitude is rejected as numerically singular. An
// exactly-zero test alone lets pivots like 1e-18 (the floating-point
// residue of a structurally singular system) through, and the resulting
// "solutions" are garbage that downstream conditioning checks may miss.
// The ratio compares against the pivot row's own scale, so well-scaled
// tiny systems (e.g. a diagonal of 1e-20s) still factor.
const MinPivotRatio = 1e-14

// luBatchCols is the number of right-hand-side columns substituted
// together by the blocked SolveTo/InverseTo path: each batch streams the
// factored matrix once instead of once per column. Batching changes no
// bits — the columns are arithmetically independent, and every column
// undergoes exactly the op sequence of the per-column substitute.
const luBatchCols = 8

// luBatchCutover is the order below which SolveTo/InverseTo keep the
// straight-line per-column code: for small systems the factored matrix is
// cache-resident anyway and the packing traffic would only add overhead.
const luBatchCutover = 48

// NewLU returns an LU factorizer for n-by-n matrices with all buffers
// preallocated. Call Refactor to load a matrix into it.
func NewLU(n int) *LU {
	return &LU{
		lu:    New(n, n),
		pivot: make([]int, n),
		sign:  1,
		col:   make([]float64, n),
		scale: make([]float64, n),
	}
}

// Factor computes the LU decomposition of a square matrix with partial
// (row) pivoting. It returns ErrSingular if a pivot is exactly zero or
// collapses below MinPivotRatio of its row's input magnitude — the
// near-singular systems that would otherwise factor "successfully" and
// produce garbage solutions.
func Factor(a *Matrix) (*LU, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("%w: LU of %dx%d", ErrDimension, a.rows, a.cols)
	}
	f := NewLU(a.rows)
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor recomputes the decomposition for a new matrix of the size the
// LU was built for, reusing all internal storage. It performs no
// allocations on the success path.
func (f *LU) Refactor(a *Matrix) error {
	n := f.lu.rows
	if a.rows != n || a.cols != n {
		return fmt.Errorf("%w: refactor %dx%d into LU of order %d", ErrDimension, a.rows, a.cols, n)
	}
	copy(f.lu.data, a.data)
	f.sign = 1
	d := f.lu.data
	for i := range f.pivot {
		f.pivot[i] = i
	}
	// Input row scales for the near-singular guard. The scales permute
	// alongside the rows so the selected pivot is always judged against
	// its own row's original magnitude; they never influence pivot
	// *selection*, which keeps accepted factorizations bit-identical to
	// the historic exact-zero-guard code.
	for i := 0; i < n; i++ {
		var m float64
		for _, v := range d[i*n : (i+1)*n] {
			if av := math.Abs(v); av > m {
				m = av
			}
		}
		f.scale[i] = m
	}
	for k := 0; k < n; k++ {
		// Select the pivot row: largest magnitude in column k at or below
		// the diagonal.
		p := k
		maxAbs := math.Abs(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(d[i*n+k]); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if maxAbs == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if maxAbs < MinPivotRatio*f.scale[p] {
			return fmt.Errorf("%w: pivot %g at column %d below %g of row magnitude %g",
				ErrSingular, maxAbs, k, MinPivotRatio, f.scale[p])
		}
		rowk := d[k*n : (k+1)*n]
		if p != k {
			rowp := d[p*n : (p+1)*n]
			rowp = rowp[:len(rowk)]
			for j, v := range rowk {
				rowk[j], rowp[j] = rowp[j], v
			}
			f.pivot[p], f.pivot[k] = f.pivot[k], f.pivot[p]
			f.sign = -f.sign
			f.scale[p], f.scale[k] = f.scale[k], f.scale[p]
		}
		// Eliminate below the pivot over row subslices: the same
		// d[i][j] -= l*d[k][j] sequence as the indexed loop, without the
		// per-element index arithmetic.
		inv := 1 / rowk[k]
		tail := rowk[k+1:]
		for i := k + 1; i < n; i++ {
			rowi := d[i*n+k : (i+1)*n]
			l := rowi[0] * inv
			rowi[0] = l
			if l == 0 {
				continue
			}
			ri := rowi[1:]
			ri = ri[:len(tail)]
			for j, v := range tail {
				ri[j] -= l * v
			}
		}
	}
	return nil
}

// SolveVec solves A x = b for a single right-hand side.
func (f *LU) SolveVec(b []float64) ([]float64, error) {
	x := make([]float64, f.lu.rows)
	if err := f.SolveVecTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveVecTo solves A x = b into the caller-owned slice x, which must not
// alias b (the permutation is applied while loading b).
func (f *LU) SolveVecTo(x, b []float64) error {
	n := f.lu.rows
	if len(b) != n || len(x) != n {
		return fmt.Errorf("%w: solve with rhs of %d into %d, want %d", ErrDimension, len(b), len(x), n)
	}
	// Apply the permutation while loading b.
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	f.substitute(x, 0)
	return nil
}

// substitute runs forward substitution with unit-diagonal L and back
// substitution with U, in place on an already-permuted right-hand side
// that is +0 in rows [0, first). Forward substitution starts at row
// first, which skips only bitwise no-ops (see substituteBatch).
func (f *LU) substitute(x []float64, first int) {
	n := f.lu.rows
	d := f.lu.data
	for i := first + 1; i < n; i++ {
		s := x[i]
		for j := first; j < i; j++ {
			s -= d[i*n+j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= d[i*n+j] * x[j]
		}
		x[i] = s / d[i*n+i]
	}
}

// Solve solves A X = B column by column.
func (f *LU) Solve(b *Matrix) (*Matrix, error) {
	out := New(f.lu.rows, b.cols)
	if err := f.SolveTo(out, b); err != nil {
		return nil, err
	}
	return out, nil
}

// SolveTo solves A X = B into the caller-owned dst, which must have B's
// shape and must not alias B. No allocations occur on the success path.
func (f *LU) SolveTo(dst, b *Matrix) error {
	n := f.lu.rows
	if b.rows != n {
		return fmt.Errorf("%w: solve with rhs %dx%d, want %d rows", ErrDimension, b.rows, b.cols, n)
	}
	if dst.rows != b.rows || dst.cols != b.cols {
		return fmt.Errorf("%w: solve into %dx%d, want %dx%d", ErrDimension, dst.rows, dst.cols, b.rows, b.cols)
	}
	if n >= luBatchCutover && b.cols > 1 {
		for j0 := 0; j0 < b.cols; j0 += luBatchCols {
			nb := min(luBatchCols, b.cols-j0)
			x := f.batchScratch(nb)
			for i := 0; i < n; i++ {
				brow := b.data[f.pivot[i]*b.cols+j0:]
				copy(x[i*nb:(i+1)*nb], brow[:nb])
			}
			f.substituteBatch(x, nb, 0)
			for i := 0; i < n; i++ {
				copy(dst.data[i*b.cols+j0:i*b.cols+j0+nb], x[i*nb:(i+1)*nb])
			}
		}
		return nil
	}
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			f.col[i] = b.data[f.pivot[i]*b.cols+j]
		}
		f.substitute(f.col, 0)
		for i := 0; i < n; i++ {
			dst.data[i*b.cols+j] = f.col[i]
		}
	}
	return nil
}

// batchScratch returns the packed nb-column scratch block, allocating it
// on first use so evaluate-only workloads at small orders never pay for
// it. Steady-state calls reuse the buffer.
func (f *LU) batchScratch(nb int) []float64 {
	n := f.lu.rows
	if f.batch == nil {
		f.batch = make([]float64, n*luBatchCols)
	}
	return f.batch[:n*nb]
}

// substituteBatch runs forward/back substitution on nb packed columns at
// once; x[i*nb+c] holds row i of column c, and every column must be +0 in
// rows [0, first). Forward substitution starts at row first. Each term it
// skips is l·(+0), subtracted from an entry that still holds its initial
// +0 or 1, so skipping it is a bitwise no-op (DESIGN §8.2). Past that,
// each column undergoes exactly the per-column op sequence of substitute
// — the diagonal divide stays a divide — so the blocked path is
// bit-for-bit identical to the per-column one; it exists to stream the
// factored matrix once per batch.
func (f *LU) substituteBatch(x []float64, nb, first int) {
	n := f.lu.rows
	d := f.lu.data
	for i := first + 1; i < n; i++ {
		xi := x[i*nb : (i+1)*nb]
		for j := first; j < i; j++ {
			l := d[i*n+j]
			xj := x[j*nb : (j+1)*nb]
			for c := range xi {
				xi[c] -= l * xj[c]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		xi := x[i*nb : (i+1)*nb]
		for j := i + 1; j < n; j++ {
			u := d[i*n+j]
			xj := x[j*nb : (j+1)*nb]
			for c := range xi {
				xi[c] -= u * xj[c]
			}
		}
		dii := d[i*n+i]
		for c := range xi {
			xi[c] /= dii
		}
	}
}

// InverseTo writes A^{-1} into the caller-owned n-by-n dst without
// allocating: it solves A X = I column by column against implicit unit
// vectors. Each column's forward substitution starts at the row its unit
// entry lands in (at and above luBatchCutover, each batch of columns at
// the first such row): the rows above it stay exactly +0, so the skipped
// work changes no bits (see substituteBatch).
func (f *LU) InverseTo(dst *Matrix) error {
	n := f.lu.rows
	if dst.rows != n || dst.cols != n {
		return fmt.Errorf("%w: inverse into %dx%d, want %dx%d", ErrDimension, dst.rows, dst.cols, n, n)
	}
	if n >= luBatchCutover {
		for j0 := 0; j0 < n; j0 += luBatchCols {
			nb := min(luBatchCols, n-j0)
			x := f.batchScratch(nb)
			first := n
			for i := 0; i < n; i++ {
				xi := x[i*nb : (i+1)*nb]
				for c := range xi {
					xi[c] = 0
				}
				if p := f.pivot[i]; p >= j0 && p < j0+nb {
					xi[p-j0] = 1
					first = min(first, i)
				}
			}
			f.substituteBatch(x, nb, first)
			for i := 0; i < n; i++ {
				copy(dst.data[i*n+j0:i*n+j0+nb], x[i*nb:(i+1)*nb])
			}
		}
		return nil
	}
	for j := 0; j < n; j++ {
		first := 0
		for i := 0; i < n; i++ {
			if f.pivot[i] == j {
				f.col[i] = 1
				first = i
			} else {
				f.col[i] = 0
			}
		}
		f.substitute(f.col, first)
		for i := 0; i < n; i++ {
			dst.data[i*n+j] = f.col[i]
		}
	}
	return nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	n := f.lu.rows
	det := f.sign
	for i := 0; i < n; i++ {
		det *= f.lu.data[i*n+i]
	}
	return det
}

// Inverse returns A^{-1} for a square matrix A, or ErrSingular.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(Identity(a.rows))
}

// SolveLinear solves A x = b directly (factor + solve) for convenience at
// call sites that need a single solve.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

// Det returns the determinant of a square matrix, or 0 when the matrix is
// exactly singular (a zero pivot short-circuits the factorization).
func Det(a *Matrix) (float64, error) {
	f, err := Factor(a)
	if err != nil {
		if errors.Is(err, ErrSingular) {
			return 0, nil
		}
		return 0, err
	}
	return f.Det(), nil
}
