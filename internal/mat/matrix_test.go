package mat

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewFromRows(t *testing.T) {
	m, err := NewFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("NewFromRows: %v", err)
	}
	if got := m.At(1, 0); got != 3 {
		t.Errorf("At(1,0) = %v, want 3", got)
	}
	if got := m.At(0, 1); got != 2 {
		t.Errorf("At(0,1) = %v, want 2", got)
	}
}

func TestNewFromRowsRagged(t *testing.T) {
	if _, err := NewFromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrDimension) {
		t.Fatalf("ragged rows: err = %v, want ErrDimension", err)
	}
	if _, err := NewFromRows(nil); !errors.Is(err, ErrDimension) {
		t.Fatalf("empty rows: err = %v, want ErrDimension", err)
	}
}

func TestNewFromRowsCopies(t *testing.T) {
	src := [][]float64{{1, 2}, {3, 4}}
	m, err := NewFromRows(src)
	if err != nil {
		t.Fatalf("NewFromRows: %v", err)
	}
	src[0][0] = 99
	if m.At(0, 0) != 1 {
		t.Error("NewFromRows did not copy the input rows")
	}
}

// identity returns the n-by-n identity matrix.
func identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// mul returns the product a*b through MulTo.
func mul(t *testing.T, a, b *Matrix) *Matrix {
	t.Helper()
	out := New(a.Rows(), b.Cols())
	if err := MulTo(out, a, b); err != nil {
		t.Fatalf("MulTo: %v", err)
	}
	return out
}

// transpose returns aᵀ through TransposeTo.
func transpose(a *Matrix) *Matrix {
	out := New(a.Cols(), a.Rows())
	if err := TransposeTo(out, a); err != nil {
		panic(err)
	}
	return out
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 7.5)
	if m.At(0, 1) != 7.5 {
		t.Errorf("round trip = %v, want 7.5", m.At(0, 1))
	}
	m.Set(0, 1, 8)
	if m.At(0, 1) != 8 || m.At(1, 0) != 0 {
		t.Errorf("after second Set = %v", m)
	}
}

func TestRowColCopies(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 42
	if m.At(0, 0) != 1 {
		t.Error("Row returned a view, want a copy")
	}
	if r := m.Row(1); r[0] != 3 || r[1] != 4 {
		t.Errorf("Row(1) = %v, want [3 4]", r)
	}
}

func TestCloneIndependence(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with the original")
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(2, 2)
	b, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	if err := a.CopyFrom(b); err != nil {
		t.Fatalf("CopyFrom: %v", err)
	}
	if !EqualApprox(a, b, 0) {
		t.Error("CopyFrom did not copy contents")
	}
	if err := a.CopyFrom(New(3, 3)); !errors.Is(err, ErrDimension) {
		t.Errorf("shape mismatch err = %v, want ErrDimension", err)
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{5, 6}, {7, 8}})
	sum := a.Clone()
	if err := AddInPlace(sum, 1, b); err != nil {
		t.Fatalf("AddInPlace: %v", err)
	}
	want, _ := NewFromRows([][]float64{{6, 8}, {10, 12}})
	if !EqualApprox(sum, want, 0) {
		t.Errorf("AddInPlace = %v", sum)
	}
	diff, err := SubM(b, a)
	if err != nil {
		t.Fatalf("SubM: %v", err)
	}
	wantDiff, _ := NewFromRows([][]float64{{4, 4}, {4, 4}})
	if !EqualApprox(diff, wantDiff, 0) {
		t.Errorf("SubM = %v", diff)
	}
	sc := a.Clone()
	ScaleInPlace(2, sc)
	wantSc, _ := NewFromRows([][]float64{{2, 4}, {6, 8}})
	if !EqualApprox(sc, wantSc, 0) {
		t.Errorf("ScaleInPlace = %v", sc)
	}
}

func TestAddDimensionMismatch(t *testing.T) {
	if err := AddInPlace(New(2, 2), 1, New(2, 3)); !errors.Is(err, ErrDimension) {
		t.Errorf("AddInPlace err = %v, want ErrDimension", err)
	}
	if _, err := SubM(New(2, 2), New(3, 2)); !errors.Is(err, ErrDimension) {
		t.Errorf("SubM err = %v, want ErrDimension", err)
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{5, 6}, {7, 8}})
	p := mul(t, a, b)
	want, _ := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if !EqualApprox(p, want, 1e-12) {
		t.Errorf("MulTo = %v, want %v", p, want)
	}
}

func TestMulIdentity(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if p := mul(t, a, identity(3)); !EqualApprox(p, a, 0) {
		t.Error("A*I != A")
	}
	if p2 := mul(t, identity(3), a); !EqualApprox(p2, a, 0) {
		t.Error("I*A != A")
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	if err := MulTo(New(2, 3), New(2, 3), New(2, 3)); !errors.Is(err, ErrDimension) {
		t.Errorf("MulTo err = %v, want ErrDimension", err)
	}
	if err := MulTo(New(2, 2), New(2, 3), New(3, 3)); !errors.Is(err, ErrDimension) {
		t.Errorf("MulTo into wrong shape err = %v, want ErrDimension", err)
	}
}

func TestTranspose(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := New(3, 2)
	if err := TransposeTo(at, a); err != nil {
		t.Fatalf("TransposeTo: %v", err)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Errorf("TransposeTo = %v", at)
	}
	if err := TransposeTo(New(2, 3), a); !errors.Is(err, ErrDimension) {
		t.Errorf("TransposeTo into wrong shape err = %v, want ErrDimension", err)
	}
}

func TestMulVecVecMul(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	y, err := MulVec(a, []float64{1, 1})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", y)
	}
	x, err := VecMul([]float64{1, 1}, a)
	if err != nil {
		t.Fatalf("VecMul: %v", err)
	}
	if x[0] != 4 || x[1] != 6 {
		t.Errorf("VecMul = %v, want [4 6]", x)
	}
}

func TestDotAndNorms(t *testing.T) {
	a, _ := NewFromRows([][]float64{{3, 4}})
	if n := MaxAbs(a); n != 4 {
		t.Errorf("MaxAbs = %v, want 4", n)
	}
	if n := NormVec2([]float64{3, 4}); math.Abs(n-5) > 1e-12 {
		t.Errorf("NormVec2 = %v, want 5", n)
	}
}

func TestFrobeniusInner(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{5, 6}, {7, 8}})
	got, err := FrobeniusInner(a, b)
	if err != nil {
		t.Fatalf("FrobeniusInner: %v", err)
	}
	if got != 5+12+21+32 {
		t.Errorf("FrobeniusInner = %v, want 70", got)
	}
}

func TestRowSumsAndSumVec(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	rs := RowSums(a)
	if rs[0] != 3 || rs[1] != 7 {
		t.Errorf("RowSums = %v, want [3 7]", rs)
	}
	// A row vector's only row sum is the sum of the vector.
	v, _ := NewFromRows([][]float64{{1, 2, 3}})
	if s := RowSums(v); len(s) != 1 || s[0] != 6 {
		t.Errorf("RowSums of a row vector = %v, want [6]", s)
	}
}

func TestAddInPlace(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 1}, {1, 1}})
	b, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	if err := AddInPlace(a, 2, b); err != nil {
		t.Fatalf("AddInPlace: %v", err)
	}
	want, _ := NewFromRows([][]float64{{3, 5}, {7, 9}})
	if !EqualApprox(a, want, 0) {
		t.Errorf("AddInPlace = %v", a)
	}
}

func TestScaleInPlace(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	ScaleInPlace(0.5, a)
	want, _ := NewFromRows([][]float64{{0.5, 1}, {1.5, 2}})
	if !EqualApprox(a, want, 0) {
		t.Errorf("ScaleInPlace = %v", a)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}})
	b, _ := NewFromRows([][]float64{{1.5, 1}})
	if d := MaxAbsDiff(a, b); d != 1 {
		t.Errorf("MaxAbsDiff = %v, want 1", d)
	}
	if d := MaxAbsDiff(a, New(2, 2)); !math.IsInf(d, 1) {
		t.Errorf("shape mismatch diff = %v, want +Inf", d)
	}
}

func TestStringRendering(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}})
	if got := a.String(); got != "[1.000000 2.000000]" {
		t.Errorf("String = %q", got)
	}
}

// randomMatrix builds a matrix with entries drawn uniformly from
// [-scale, scale].
func randomMatrix(r *rand.Rand, n int, scale float64) *Matrix {
	m := New(n, n)
	for i := range m.Data() {
		m.Data()[i] = scale * (2*r.Float64() - 1)
	}
	return m
}

// TestMulAssociativityProperty checks (AB)C == A(BC) on random matrices.
func TestMulAssociativityProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(6)
		a := randomMatrix(r, n, 2)
		b := randomMatrix(r, n, 2)
		c := randomMatrix(r, n, 2)
		left := mul(t, mul(t, a, b), c)
		right := mul(t, a, mul(t, b, c))
		if MaxAbsDiff(left, right) > 1e-9 {
			t.Fatalf("trial %d: (AB)C != A(BC), diff %v", trial, MaxAbsDiff(left, right))
		}
	}
}

// TestTransposeInvolutionProperty checks (A^T)^T == A via testing/quick on
// the flattened representation.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(vals [9]float64) bool {
		m := New(3, 3)
		copy(m.Data(), vals[:])
		return EqualApprox(transpose(transpose(m)), m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTransposeProductProperty checks (AB)^T == B^T A^T.
func TestTransposeProductProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(5)
		a := randomMatrix(r, n, 3)
		b := randomMatrix(r, n, 3)
		left := transpose(mul(t, a, b))
		right := mul(t, transpose(b), transpose(a))
		if MaxAbsDiff(left, right) > 1e-9 {
			t.Fatalf("trial %d: (AB)^T != B^T A^T", trial)
		}
	}
}
