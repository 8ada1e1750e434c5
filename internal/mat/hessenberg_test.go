package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// hessenbergOrders are the orders the reduction is checked at: the
// degenerate sizes without reflectors (1, 2), the smallest with one (3),
// and two sizes with many.
var hessenbergOrders = []int{1, 2, 3, 8, 64}

// randomDense returns an n-by-n matrix with entries uniform in [-1, 1).
func randomDense(r *rand.Rand, n int) *Matrix {
	a := New(n, n)
	for i := range a.data {
		a.data[i] = 2*r.Float64() - 1
	}
	return a
}

// explicitQ forms Q row by row: row i is e_i·Q.
func explicitQ(h *Hessenberg) *Matrix {
	n := h.n
	q := New(n, n)
	for i := 0; i < n; i++ {
		row := q.data[i*n : (i+1)*n]
		row[i] = 1
		h.ApplyQ(row)
	}
	return q
}

// explicitH reads H back from its anti-transposed storage, with exact
// zeros below the subdiagonal.
func explicitH(h *Hessenberg) *Matrix {
	n := h.n
	out := New(n, n)
	for p := 0; p < n; p++ {
		for q := max(p-1, 0); q < n; q++ {
			out.data[p*n+q] = h.r[(n-1-q)*n+(n-1-p)]
		}
	}
	return out
}

// TestHessenbergReconstructs checks B = Q·H·Qᵀ with Q orthogonal, both to
// 1e-13 of ‖B‖, and that the input is left untouched.
func TestHessenbergReconstructs(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	for _, n := range hessenbergOrders {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			b := randomDense(r, n)
			orig := b.Clone()
			h := NewHessenberg(n, nil)
			if err := h.Reduce(b); err != nil {
				t.Fatal(err)
			}
			if MaxAbsDiff(b, orig) != 0 {
				t.Fatal("Reduce modified its input")
			}
			q, hm := explicitQ(h), explicitH(h)
			back := mul(t, mul(t, q, hm), transpose(q))
			bb, _ := FrobeniusInner(b, b)
			norm := math.Sqrt(bb)
			if d := MaxAbsDiff(back, b); d > 1e-13*norm {
				t.Errorf("‖QHQᵀ − B‖max = %.3g, want ≤ 1e-13·‖B‖ = %.3g", d, 1e-13*norm)
			}
			if d := MaxAbsDiff(mul(t, transpose(q), q), identity(n)); d > 1e-13 {
				t.Errorf("‖QᵀQ − I‖max = %.3g", d)
			}
			// ApplyQT undoes ApplyQ.
			x := make([]float64, n)
			for i := range x {
				x[i] = r.Float64()
			}
			y := append([]float64(nil), x...)
			h.ApplyQ(y)
			h.ApplyQT(y)
			for i := range x {
				if math.Abs(y[i]-x[i]) > 1e-14 {
					t.Fatalf("x·Q·Qᵀ[%d] = %v, want %v", i, y[i], x[i])
				}
			}
		})
	}
}

// TestShiftedSolveResidual solves y·(I − δB) = c through the reduction
// (c' = c·Q, u·(I − δH) = c', y = u·Qᵀ) and checks the residual against
// B itself over shifts of both signs and magnitudes.
func TestShiftedSolveResidual(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 2))
	for _, n := range hessenbergOrders {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			b := randomDense(r, n)
			h := NewHessenberg(n, nil)
			if err := h.Reduce(b); err != nil {
				t.Fatal(err)
			}
			ws := NewShiftedScratch(n)
			c := make([]float64, n)
			for i := range c {
				c[i] = 2*r.Float64() - 1
			}
			for _, delta := range []float64{0, 1e-9, 0.01, -0.3, 0.7} {
				cq := append([]float64(nil), c...)
				h.ApplyQ(cq)
				y := make([]float64, n)
				if err := h.ShiftedSolveTo(y, cq, delta, ws); err != nil {
					t.Fatalf("δ=%v: %v", delta, err)
				}
				h.ApplyQT(y)
				// res = y·(I − δB) − c.
				yb, _ := VecMul(y, b)
				var res, ynorm float64
				for j := range y {
					res = math.Max(res, math.Abs(y[j]-delta*yb[j]-c[j]))
					ynorm = math.Max(ynorm, math.Abs(y[j]))
				}
				if res > 1e-12*(1+ynorm) {
					t.Errorf("δ=%v: residual %.3g (‖y‖max %.3g)", delta, res, ynorm)
				}
			}
		})
	}
}

// TestShiftedSolveKnown pins the 1×1 and a pivoting 2×2 case by hand.
func TestShiftedSolveKnown(t *testing.T) {
	h := NewHessenberg(1, nil)
	b, _ := NewFromRows([][]float64{{4}})
	if err := h.Reduce(b); err != nil {
		t.Fatal(err)
	}
	u := make([]float64, 1)
	if err := h.ShiftedSolveTo(u, []float64{3}, 0.5, NewShiftedScratch(1)); err != nil {
		t.Fatal(err)
	}
	if u[0] != -3 { // 3 / (1 − 0.5·4)
		t.Errorf("u = %v, want -3", u[0])
	}

	// I − 1·B = [[0, 1], [1, 0]]: the first pivot is zero, so the
	// adjacent rows must swap. u·[[0,1],[1,0]] = [2, 3] → u = [3, 2].
	h = NewHessenberg(2, nil)
	b, _ = NewFromRows([][]float64{{1, -1}, {-1, 1}})
	if err := h.Reduce(b); err != nil {
		t.Fatal(err)
	}
	u = make([]float64, 2)
	if err := h.ShiftedSolveTo(u, []float64{2, 3}, 1, NewShiftedScratch(2)); err != nil {
		t.Fatal(err)
	}
	if math.Abs(u[0]-3) > 1e-15 || math.Abs(u[1]-2) > 1e-15 {
		t.Errorf("u = %v, want [3 2]", u)
	}
}

// TestShiftedSolveRejectsSingularShift picks δ = 1/λ for an eigenvalue
// λ of B, where I − δB is singular, and expects ErrSingular rather than
// a garbage solution. A triangular B is its own Hessenberg form, so its
// shifted system is singular in floating point too and must hit the
// zero-pivot check at every order. A rank-one B = u·vᵀ (λ = v·u) is
// singular only up to the rounding of its reduction; at the small orders
// that residue stays under the scaled pivot guard.
func TestShiftedSolveRejectsSingularShift(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 4))
	for _, n := range hessenbergOrders {
		t.Run(fmt.Sprintf("triangular/n=%d", n), func(t *testing.T) {
			b := New(n, n)
			for i := 0; i < n; i++ {
				b.data[i*n+i] = float64(5 + i)
				for j := i + 1; j < n; j++ {
					b.data[i*n+j] = 2*r.Float64() - 1
				}
			}
			// λ = 2 is on the diagonal, and δ = 1/2 is exact.
			b.data[(n/2)*n+n/2] = 2
			expectSingular(t, b, 0.5, n)
		})
		if n > 8 {
			continue
		}
		t.Run(fmt.Sprintf("rank-one/n=%d", n), func(t *testing.T) {
			uu, vv := make([]float64, n), make([]float64, n)
			for i := range uu {
				uu[i], vv[i] = r.Float64()+0.5, r.Float64()+0.5
			}
			b := New(n, n)
			var lambda float64
			for i := 0; i < n; i++ {
				lambda += vv[i] * uu[i]
				for j := 0; j < n; j++ {
					b.data[i*n+j] = uu[i] * vv[j]
				}
			}
			expectSingular(t, b, 1/lambda, n)
		})
	}
}

// expectSingular reduces b and requires the shift δ to be rejected and
// the shift δ/2, off the spectrum, to solve.
func expectSingular(t *testing.T, b *Matrix, delta float64, n int) {
	t.Helper()
	h := NewHessenberg(n, nil)
	if err := h.Reduce(b); err != nil {
		t.Fatal(err)
	}
	c := make([]float64, n)
	c[0] = 1
	y := make([]float64, n)
	ws := NewShiftedScratch(n)
	if err := h.ShiftedSolveTo(y, c, delta, ws); !errors.Is(err, ErrSingular) {
		t.Fatalf("δ = %v: err = %v, want ErrSingular (y = %v)", delta, err, y[:min(n, 4)])
	}
	if err := h.ShiftedSolveTo(y, c, delta/2, ws); err != nil {
		t.Fatalf("δ = %v: %v", delta/2, err)
	}
}

// TestHessenbergZeroAllocs pins the allocation-free contract of the
// reduction and of every per-shift operation.
func TestHessenbergZeroAllocs(t *testing.T) {
	const n = 32
	r := rand.New(rand.NewPCG(1, 8))
	b := randomDense(r, n)
	h := NewHessenberg(n, nil)
	ws := NewShiftedScratch(n)
	c := make([]float64, n)
	c[3] = 1
	y := make([]float64, n)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := h.Reduce(b); err != nil {
			t.Fatal(err)
		}
		h.ApplyQ(c)
		if err := h.ShiftedSolveTo(y, c, 0.1, ws); err != nil {
			t.Fatal(err)
		}
		h.ApplyQT(y)
	}); allocs != 0 {
		t.Errorf("reduce + shifted solve allocate %v per run, want 0", allocs)
	}
}

func TestHessenbergDimensionErrors(t *testing.T) {
	h := NewHessenberg(3, nil)
	if err := h.Reduce(New(3, 2)); !errors.Is(err, ErrDimension) {
		t.Errorf("Reduce 3x2: err = %v, want ErrDimension", err)
	}
	if err := h.ShiftedSolveTo(make([]float64, 2), make([]float64, 3), 0, NewShiftedScratch(3)); !errors.Is(err, ErrDimension) {
		t.Errorf("short u: err = %v, want ErrDimension", err)
	}
}
