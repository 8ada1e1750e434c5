package mat

import (
	"math"
	"testing"
)

// referenceSubstitute is the per-column forward/back substitution with
// forward substitution from row 0 and no skipped terms: the op sequence
// every solve path must reproduce bit for bit.
func referenceSubstitute(f *LU, x []float64) {
	n := f.lu.rows
	d := f.lu.data
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
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

// referenceFactor is the unsliced elimination: partial pivoting with the
// indexed row swap and the indexed d[i*n+j] -= l*d[k*n+j] update. It
// returns the packed factors and the pivot permutation.
func referenceFactor(a *Matrix) ([]float64, []int) {
	n := a.rows
	d := append([]float64(nil), a.data...)
	pivot := make([]int, n)
	for i := range pivot {
		pivot[i] = i
	}
	for k := 0; k < n; k++ {
		p := k
		maxAbs := math.Abs(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(d[i*n+k]); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if p != k {
			for j := 0; j < n; j++ {
				d[p*n+j], d[k*n+j] = d[k*n+j], d[p*n+j]
			}
			pivot[p], pivot[k] = pivot[k], pivot[p]
		}
		inv := 1 / d[k*n+k]
		for i := k + 1; i < n; i++ {
			l := d[i*n+k] * inv
			d[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				d[i*n+j] -= l * d[k*n+j]
			}
		}
	}
	return d, pivot
}

// swappedSystem builds a regular n-by-n matrix whose partial pivoting
// must swap rows: a diagonally dominant matrix (with exact zeros from
// fillDeterministic) whose rows are then rotated by a stride coprime to
// n, so the dominant entry of column k sits far from row k.
func swappedSystem(n int, seed uint64) *Matrix {
	base := New(n, n)
	fillDeterministic(base, seed)
	for i := 0; i < n; i++ {
		base.data[i*n+i] += 8
	}
	stride := 1
	for s := n/3 + 1; s < n; s++ {
		if gcd(s, n) == 1 {
			stride = s
			break
		}
	}
	a := New(n, n)
	for i := 0; i < n; i++ {
		copy(a.data[i*n:(i+1)*n], base.data[(i*stride%n)*n:(i*stride%n+1)*n])
	}
	return a
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// zeroMultiplierSystem builds a regular n-by-n matrix that factors
// without row swaps and whose elimination meets an exact zero multiplier
// in each position of a row pair: at column 0 rows 2 and 3 (the second
// of pair (1, 2), the first of pair (3, 4)) are +0 and −0, and at
// column 1 row 4 is 0 and stays 0 after column 0's update.
func zeroMultiplierSystem(n int, seed uint64) *Matrix {
	a := New(n, n)
	fillDeterministic(a, seed)
	for i := 0; i < n; i++ {
		a.data[i*n+i] = 4 * float64(n)
	}
	if n > 4 {
		a.data[2*n] = 0
		a.data[3*n] = math.Copysign(0, -1)
		a.data[4*n] = 0
		a.data[4*n+1] = 0
	}
	return a
}

// TestLUMatchesReferenceLoops checks Refactor and InverseTo bit for bit against the unsliced elimination and the per-column, row-0
// substitution, on orders below and above luBatchCutover whose
// factorizations swap rows — so the identity columns' unit entries land
// out of order and InverseTo's per-batch starting row varies — and, at
// odd and even orders, on systems with zero multipliers in either row of
// the two-row elimination.
func TestLUMatchesReferenceLoops(t *testing.T) {
	for _, n := range []int{5, 8, 9, 33, luBatchCutover + 1, 64} {
		a := zeroMultiplierSystem(n, uint64(n)*7)
		f, err := Factor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		wantLU, _ := referenceFactor(a)
		if i := sameBits(f.lu.data, wantLU); i >= 0 {
			t.Fatalf("n=%d zero multipliers: Refactor entry %d = %x, want %x", n, i,
				math.Float64bits(f.lu.data[i]), math.Float64bits(wantLU[i]))
		}
		if f.lu.data[2*n] != 0 || !math.Signbit(f.lu.data[3*n]) || f.lu.data[4*n+1] != 0 {
			t.Fatalf("n=%d: the fixture lost its zero multipliers", n)
		}
		gotInv, wantInv := New(n, n), New(n, n)
		if err := f.InverseTo(gotInv); err != nil {
			t.Fatalf("n=%d InverseTo: %v", n, err)
		}
		referenceSolveTo(f, wantInv, identity(n))
		if i := sameBits(gotInv.data, wantInv.data); i >= 0 {
			t.Fatalf("n=%d zero multipliers: InverseTo entry %d differs from the reference loops", n, i)
		}
	}
	for _, n := range []int{5, 17, luBatchCutover, 64, 97} {
		a := swappedSystem(n, uint64(n)*31)
		f := NewLU(n)
		// Refactor twice: the second pass must not depend on the first.
		if err := f.Refactor(swappedSystem(n, 5)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := f.Refactor(a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		wantLU, wantPivot := referenceFactor(a)
		if i := sameBits(f.lu.data, wantLU); i >= 0 {
			t.Fatalf("n=%d: Refactor entry %d = %x, want %x", n, i,
				math.Float64bits(f.lu.data[i]), math.Float64bits(wantLU[i]))
		}
		swaps := 0
		for i, p := range wantPivot {
			if f.pivot[i] != p {
				t.Fatalf("n=%d: pivot[%d] = %d, want %d", n, i, f.pivot[i], p)
			}
			if p != i {
				swaps++
			}
		}
		if swaps < n/2 {
			t.Fatalf("n=%d: %d rows permuted; the fixture must force swaps", n, swaps)
		}

		gotInv := New(n, n)
		if err := f.InverseTo(gotInv); err != nil {
			t.Fatalf("n=%d InverseTo: %v", n, err)
		}
		wantInv := New(n, n)
		referenceSolveTo(f, wantInv, identity(n))
		if i := sameBits(gotInv.data, wantInv.data); i >= 0 {
			t.Fatalf("n=%d: InverseTo entry %d differs from the reference loops", n, i)
		}
	}
}
