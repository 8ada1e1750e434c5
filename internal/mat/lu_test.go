package mat

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

func TestFactorNonSquare(t *testing.T) {
	if _, err := Factor(New(2, 3)); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

func TestFactorSingular(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Factor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// solveLinear factors a and solves a x = b through the production
// Factor and SolveVec path.
func solveLinear(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b)
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	a, _ := NewFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := solveLinear(a, []float64{5, 10})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a, _ := NewFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := solveLinear(a, []float64{2, 3})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestInverseKnown(t *testing.T) {
	a, _ := NewFromRows([][]float64{{4, 7}, {2, 6}})
	f, err := Factor(a)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	inv := New(2, 2)
	if err := f.InverseTo(inv); err != nil {
		t.Fatalf("InverseTo: %v", err)
	}
	want, _ := NewFromRows([][]float64{{0.6, -0.7}, {-0.2, 0.4}})
	if !EqualApprox(inv, want, 1e-12) {
		t.Errorf("InverseTo = %v, want %v", inv, want)
	}
}

func TestInverseRandomProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.IntN(8)
		a := randomMatrix(r, n, 5)
		// Shift the diagonal to keep the matrix comfortably non-singular.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)*6)
		}
		f, err := Factor(a)
		if err != nil {
			t.Fatalf("trial %d: Factor: %v", trial, err)
		}
		inv := New(n, n)
		if err := f.InverseTo(inv); err != nil {
			t.Fatalf("trial %d: InverseTo: %v", trial, err)
		}
		prod := mul(t, a, inv)
		if MaxAbsDiff(prod, identity(n)) > 1e-8 {
			t.Fatalf("trial %d: A*A^{-1} != I (diff %v)", trial, MaxAbsDiff(prod, identity(n)))
		}
		if MaxAbsDiff(mul(t, inv, a), identity(n)) > 1e-8 {
			t.Fatalf("trial %d: A^{-1}*A != I", trial)
		}
	}
}

func TestSolveMatrixRHS(t *testing.T) {
	a, _ := NewFromRows([][]float64{{2, 0}, {0, 4}})
	f, err := Factor(a)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	b, _ := NewFromRows([][]float64{{2, 4}, {4, 8}})
	// A matrix right-hand side is solved as A⁻¹B, the way the
	// fundamental matrix is formed.
	inv := New(2, 2)
	if err := f.InverseTo(inv); err != nil {
		t.Fatalf("InverseTo: %v", err)
	}
	x := mul(t, inv, b)
	want, _ := NewFromRows([][]float64{{1, 2}, {1, 2}})
	if !EqualApprox(x, want, 1e-12) {
		t.Errorf("A⁻¹B = %v, want %v", x, want)
	}
}

func TestSolveVecDimensionMismatch(t *testing.T) {
	f, err := Factor(identity(2))
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if _, err := f.SolveVec([]float64{1, 2, 3}); !errors.Is(err, ErrDimension) {
		t.Errorf("err = %v, want ErrDimension", err)
	}
	if err := f.InverseTo(New(3, 3)); !errors.Is(err, ErrDimension) {
		t.Errorf("inverse into wrong shape err = %v, want ErrDimension", err)
	}
}

func TestFactorNearSingular(t *testing.T) {
	// Rows differ by ~machine epsilon: the second pivot survives exact
	// cancellation but collapses to ~1e-16 of the row magnitude. The old
	// exact-zero check accepted this and produced garbage solutions; the
	// scaled threshold must reject it.
	a, _ := NewFromRows([][]float64{{1, 1}, {1, 1 + 1e-16}})
	if _, err := Factor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("near-singular err = %v, want ErrSingular", err)
	}
	// Same shape at a large scale: the threshold is relative to row
	// magnitude, not absolute.
	b, _ := NewFromRows([][]float64{{1e12, 1e12}, {1e12, 1e12 * (1 + 1e-16)}})
	if _, err := Factor(b); !errors.Is(err, ErrSingular) {
		t.Fatalf("scaled near-singular err = %v, want ErrSingular", err)
	}
}

func TestFactorTinyButWellConditioned(t *testing.T) {
	// A uniformly tiny matrix is perfectly conditioned; the scaled
	// threshold must not reject it the way an absolute floor would.
	n := 6
	a := identity(n)
	for i, v := range a.Data() {
		a.Data()[i] = v * 1e-20
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatalf("tiny identity rejected: %v", err)
	}
	x, err := f.SolveVec([]float64{1e-20, 2e-20, 3e-20, 4e-20, 5e-20, 6e-20})
	if err != nil {
		t.Fatalf("SolveVec: %v", err)
	}
	for i := range x {
		want := float64(i + 1)
		if math.Abs(x[i]-want) > 1e-10 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want)
		}
	}
}

func TestSolveResidualProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(19, 23))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.IntN(10)
		a := randomMatrix(r, n, 3)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)*4)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = 10 * (2*r.Float64() - 1)
		}
		x, err := solveLinear(a, b)
		if err != nil {
			t.Fatalf("trial %d: solve: %v", trial, err)
		}
		ax, _ := MulVec(a, x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-8 {
				t.Fatalf("trial %d: residual %v at %d", trial, ax[i]-b[i], i)
			}
		}
	}
}
