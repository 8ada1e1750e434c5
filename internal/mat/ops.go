package mat

import (
	"fmt"
	"math"
)

// SubM returns a - b.
func SubM(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("%w: sub %dx%d and %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out, nil
}

// ScaleInPlace multiplies every entry of a by s.
func ScaleInPlace(s float64, a *Matrix) {
	for i := range a.data {
		a.data[i] *= s
	}
}

// AddInPlace adds s*b into a (a += s*b). The shapes must match.
func AddInPlace(a *Matrix, s float64, b *Matrix) error {
	if a.rows != b.rows || a.cols != b.cols {
		return fmt.Errorf("%w: axpy %dx%d and %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols)
	}
	for i := range a.data {
		a.data[i] += s * b.data[i]
	}
	return nil
}

// MulTo computes the matrix product a*b into the caller-owned dst, which
// must not alias a or b. It performs no allocations on the success path.
func MulTo(dst, a, b *Matrix) error {
	return MulToRows(dst, a, b, 0, a.rows)
}

// mulTileK is the number of b rows processed per tile in large products:
// the tile is revisited for every dst row, so keeping it L1/L2-resident
// cuts memory traffic roughly by the tile count. Products whose inner
// dimension fits in one tile take the straight-line path.
const mulTileK = 64

// MulToRows computes rows [lo, hi) of the product a*b into the matching
// rows of dst, leaving all other rows of dst untouched. Row i of the
// product depends only on row i of a, so disjoint spans may be computed
// concurrently; within each entry the k-accumulation runs in the same
// ascending order (with the same exact-zero skip) as a full serial MulTo,
// which makes a row-partitioned parallel product bit-for-bit identical to
// the serial one. Tiling over k preserves that order too: tiles are
// visited in ascending k.
func MulToRows(dst, a, b *Matrix, lo, hi int) error {
	if a.cols != b.rows {
		return fmt.Errorf("%w: mul %dx%d by %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("%w: mul into %dx%d, want %dx%d", ErrDimension, dst.rows, dst.cols, a.rows, b.cols)
	}
	if lo < 0 || hi > a.rows || lo > hi {
		return fmt.Errorf("%w: mul rows [%d, %d) of %d", ErrDimension, lo, hi, a.rows)
	}
	for i := lo; i < hi; i++ {
		orow := dst.data[i*b.cols : (i+1)*b.cols]
		for j := range orow {
			orow[j] = 0
		}
	}
	// ikj loop order keeps the inner loop streaming over contiguous rows of
	// b and dst, which matters once M grows past cache lines.
	if b.rows <= mulTileK {
		for i := lo; i < hi; i++ {
			arow := a.data[i*a.cols : (i+1)*a.cols]
			orow := dst.data[i*b.cols : (i+1)*b.cols]
			for k, aik := range arow {
				if aik == 0 {
					continue
				}
				brow := b.data[k*b.cols : (k+1)*b.cols]
				for j, bkj := range brow {
					orow[j] += aik * bkj
				}
			}
		}
		return nil
	}
	for k0 := 0; k0 < b.rows; k0 += mulTileK {
		k1 := min(k0+mulTileK, b.rows)
		for i := lo; i < hi; i++ {
			aseg := a.data[i*a.cols+k0 : i*a.cols+k1]
			orow := dst.data[i*b.cols : (i+1)*b.cols]
			for kk, aik := range aseg {
				if aik == 0 {
					continue
				}
				brow := b.data[(k0+kk)*b.cols : (k0+kk+1)*b.cols]
				for j, bkj := range brow {
					orow[j] += aik * bkj
				}
			}
		}
	}
	return nil
}

// TransposeTo writes the transpose of a into the caller-owned dst, which
// must not alias a.
func TransposeTo(dst, a *Matrix) error {
	if dst.rows != a.cols || dst.cols != a.rows {
		return fmt.Errorf("%w: transpose %dx%d into %dx%d", ErrDimension, a.rows, a.cols, dst.rows, dst.cols)
	}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			dst.data[j*a.rows+i] = a.data[i*a.cols+j]
		}
	}
	return nil
}

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Matrix, x []float64) ([]float64, error) {
	out := make([]float64, a.rows)
	if err := MulVecTo(out, a, x); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecTo computes the matrix-vector product a*x into the caller-owned
// dst, which must not alias x.
func MulVecTo(dst []float64, a *Matrix, x []float64) error {
	if a.cols != len(x) {
		return fmt.Errorf("%w: mulvec %dx%d by vector of %d", ErrDimension, a.rows, a.cols, len(x))
	}
	if len(dst) != a.rows {
		return fmt.Errorf("%w: mulvec into vector of %d, want %d", ErrDimension, len(dst), a.rows)
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return nil
}

// VecMul returns the vector-matrix product x*a (x treated as a row vector).
func VecMul(x []float64, a *Matrix) ([]float64, error) {
	if a.rows != len(x) {
		return nil, fmt.Errorf("%w: vecmul vector of %d by %dx%d", ErrDimension, len(x), a.rows, a.cols)
	}
	out := make([]float64, a.cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: dot vectors of %d and %d", ErrDimension, len(x), len(y))
	}
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s, nil
}

// FrobeniusInner returns the Frobenius inner product <a, b> = sum a_ij*b_ij.
func FrobeniusInner(a, b *Matrix) (float64, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return 0, fmt.Errorf("%w: inner %dx%d and %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols)
	}
	var s float64
	for i := range a.data {
		s += a.data[i] * b.data[i]
	}
	return s, nil
}

// MaxAbs returns the largest absolute entry of the matrix (the max norm).
func MaxAbs(a *Matrix) float64 {
	var m float64
	for _, v := range a.data {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// RowSums returns the vector of per-row sums.
func RowSums(a *Matrix) []float64 {
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		var s float64
		for _, v := range a.data[i*a.cols : (i+1)*a.cols] {
			s += v
		}
		out[i] = s
	}
	return out
}

// NormVec2 returns the Euclidean norm of x.
func NormVec2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
