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
// cuts memory traffic roughly by the tile count. A product whose inner
// dimension fits in one tile makes one pass over its rows.
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
	for k0 := 0; k0 < b.rows; k0 += mulTileK {
		k1 := min(k0+mulTileK, b.rows)
		for i := lo; i < hi; i++ {
			accumRows(dst.data[i*b.cols:(i+1)*b.cols], a.data[i*a.cols+k0:i*a.cols+k1], b.data[k0*b.cols:])
		}
	}
	return nil
}

// accumRows adds Σ_k as[k]·(row k of b) into orow, for k ascending,
// where row k of b is b[k·len(orow) : (k+1)·len(orow)]; a zero as[k]
// adds nothing. Four k go per pass over orow when all four are nonzero:
// each orow[j] still adds its terms one at a time in ascending k, so the
// bits are the one-k loop's (DESIGN §8.2). A group with a zero takes the
// one-k loop, which keeps the skip exactly where it was.
func accumRows(orow, as, b []float64) {
	n := len(orow)
	brow := func(k int) []float64 {
		r := b[k*n : (k+1)*n]
		return r[:len(orow)]
	}
	k := 0
	for ; k+4 <= len(as); k += 4 {
		a0, a1, a2, a3 := as[k], as[k+1], as[k+2], as[k+3]
		if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
			accumRowsSkip(orow, as[k:k+4], b[k*n:])
			continue
		}
		b0, b1, b2, b3 := brow(k), brow(k+1), brow(k+2), brow(k+3)
		for j := range orow {
			orow[j] = orow[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	accumRowsSkip(orow, as[k:], b[k*n:])
}

// accumRowsSkip is accumRows one k at a time.
func accumRowsSkip(orow, as, b []float64) {
	n := len(orow)
	for k, aik := range as {
		if aik == 0 {
			continue
		}
		r := b[k*n : (k+1)*n]
		r = r[:len(orow)]
		for j := range orow {
			orow[j] += aik * r[j]
		}
	}
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
