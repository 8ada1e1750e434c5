package mat

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
)

// diagDominantSparse builds a random sparse strictly diagonally dominant
// matrix — the shape (up to the weak/strict distinction) of the shifted
// Markov systems the no-pivoting factorization is designed for.
func diagDominantSparse(src *rng.Source, n int, density float64) *Matrix {
	a := New(n, n)
	d := a.Data()
	for i := 0; i < n; i++ {
		row := d[i*n : (i+1)*n]
		var sum float64
		for j := range row {
			if j != i && src.Float64() < density {
				row[j] = src.Float64()*2 - 1
				sum += math.Abs(row[j])
			}
		}
		row[i] = sum + 0.5 + src.Float64()
	}
	return a
}

// factorSparse factors a's nonzero pattern with SparseLU.Refactor under
// the default fill-reducing order.
func factorSparse(a *Matrix, pivotRatio float64) (*SparseLU, error) {
	var f SparseLU
	if err := f.Refactor(sparseOf(a), nil, pivotRatio); err != nil {
		return nil, err
	}
	return &f, nil
}

// lowRankSolve solves one right-hand side through lr's block solve.
func lowRankSolve(lr *LowRankSolver, x, b []float64) error {
	copy(x, b)
	return lr.SolveMultiTo(x, x, 1)
}

func TestFactorSparseSolvesLikeDense(t *testing.T) {
	src := rng.New(4)
	for _, tc := range []struct {
		n       int
		density float64
	}{
		{1, 1}, {5, 0.6}, {24, 0.2}, {80, 0.06}, {80, 0.5},
	} {
		a := diagDominantSparse(src, tc.n, tc.density)
		f, err := factorSparse(a, 0)
		if err != nil {
			t.Fatalf("n=%d: Refactor: %v", tc.n, err)
		}
		// Stored factor entries: L + U + diagonal.
		if fill := int(f.lptr[f.n]) + int(f.uptr[f.n]) + f.n; fill < tc.n {
			t.Fatalf("fill = %d below order %d", fill, tc.n)
		}
		dl, err := Factor(a)
		if err != nil {
			t.Fatalf("dense Factor: %v", err)
		}
		b := make([]float64, tc.n)
		for i := range b {
			b[i] = src.Float64() - 0.5
		}
		got := make([]float64, tc.n)
		want := make([]float64, tc.n)
		if err := f.SolveVecTo(got, b); err != nil {
			t.Fatalf("sparse solve: %v", err)
		}
		if err := dl.SolveVecTo(want, b); err != nil {
			t.Fatalf("dense solve: %v", err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d dens=%g: x[%d] = %g, want %g", tc.n, tc.density, i, got[i], want[i])
			}
		}
		// Transpose solve against the densely factored transpose.
		dt, err := Factor(transpose(a))
		if err != nil {
			t.Fatalf("dense Factor(aᵀ): %v", err)
		}
		if err := f.SolveVecTransTo(got, b); err != nil {
			t.Fatalf("sparse solve-T: %v", err)
		}
		if err := dt.SolveVecTo(want, b); err != nil {
			t.Fatalf("dense solve-T: %v", err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d dens=%g: xT[%d] = %g, want %g", tc.n, tc.density, i, got[i], want[i])
			}
		}
		// The three-column block solve agrees with three single solves.
		const k = 3
		bm := make([]float64, tc.n*k)
		for i := range bm {
			bm[i] = src.Float64() - 0.5
		}
		xm := make([]float64, len(bm))
		if err := f.SolveMultiTransTo(xm, bm, k); err != nil {
			t.Fatalf("sparse multi-solve-T: %v", err)
		}
		col := make([]float64, tc.n)
		for r := 0; r < k; r++ {
			for i := range col {
				col[i] = bm[i*k+r]
			}
			if err := f.SolveVecTransTo(got, col); err != nil {
				t.Fatalf("sparse solve-T: %v", err)
			}
			for i := range got {
				if math.Abs(xm[i*k+r]-got[i]) > 1e-12*(1+math.Abs(got[i])) {
					t.Fatalf("n=%d: block column %d row %d = %g, single solve %g", tc.n, r, i, xm[i*k+r], got[i])
				}
			}
		}
	}
}

// TestFactorSparseDenseRowPinned checks the Markov shape specifically:
// sparse rows plus one dense last row (the normalization row). FillOrder
// pins the dense row last so the factor fill stays near the input fill.
func TestFactorSparseDenseRowPinned(t *testing.T) {
	src := rng.New(6)
	n := 60
	a := diagDominantSparse(src, n, 0.05)
	d := a.Data()
	last := d[(n-1)*n : n*n]
	var sum float64
	for j := 0; j < n-1; j++ {
		last[j] = 0.1 + src.Float64()
		sum += last[j]
	}
	last[n-1] = sum + 1
	f, err := factorSparse(a, 0)
	if err != nil {
		t.Fatalf("Refactor: %v", err)
	}
	// Fill should stay well under dense (n² = 3600); with the dense row
	// pinned last it is input fill plus modest elimination fill.
	if fill := int(f.lptr[f.n]) + int(f.uptr[f.n]) + f.n; fill > n*n/2 {
		t.Fatalf("fill %d suggests the dense row was not pinned (dense would be %d)", fill, n*n)
	}
	dl, err := Factor(a)
	if err != nil {
		t.Fatalf("dense Factor: %v", err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = src.Float64()
	}
	got, want := make([]float64, n), make([]float64, n)
	if err := f.SolveVecTo(got, b); err != nil {
		t.Fatalf("sparse solve: %v", err)
	}
	if err := dl.SolveVecTo(want, b); err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestFactorSparseRejectsSingular(t *testing.T) {
	// Zero row: rowMax == 0.
	zr, _ := NewFromRows([][]float64{{1, 0, 0}, {0, 0, 0}, {0, 0, 1}})
	if _, err := factorSparse(zr, 0); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero row: err = %v, want ErrSingular", err)
	}
	// Exactly dependent rows: the second pivot cancels to zero.
	dep, _ := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := factorSparse(dep, 0); !errors.Is(err, ErrSingular) {
		t.Fatalf("dependent rows: err = %v, want ErrSingular", err)
	}
	// Near-dependent rows: pivot collapses below the scaled threshold.
	near, _ := NewFromRows([][]float64{{1, 2}, {2, 4 + 4e-16}})
	if _, err := factorSparse(near, 1e-12); !errors.Is(err, ErrSingular) {
		t.Fatalf("near-dependent rows: err = %v, want ErrSingular", err)
	}
	// Rectangular input.
	var f SparseLU
	if err := f.Refactor(sparseOf(New(2, 3)), nil, 0); !errors.Is(err, ErrDimension) {
		t.Fatalf("rectangular: err = %v, want ErrDimension", err)
	}
}

// TestLowRankSolverMatchesDense solves A + u₁v₁ᵀ + u₂v₂ᵀ over the sparse
// factorization of Aᵀ — the transposed base RefactorTrans takes — against
// a dense factorization of the updated matrix.
func TestLowRankSolverMatchesDense(t *testing.T) {
	src := rng.New(8)
	n := 40
	a := diagDominantSparse(src, n, 0.15)
	base, err := factorSparse(transpose(a), 0)
	if err != nil {
		t.Fatalf("Refactor(Aᵀ): %v", err)
	}

	// Rank-2 update A + u₁v₁ᵀ + u₂v₂ᵀ with small random columns (small so
	// the update cannot make the matrix singular).
	u := [][]float64{make([]float64, n), make([]float64, n)}
	v := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		u[0][i] = 0.1 * (src.Float64() - 0.5)
		u[1][i] = 0.1 * (src.Float64() - 0.5)
		v[0][i] = 0.1 * (src.Float64() - 0.5)
		v[1][i] = 0.1 * (src.Float64() - 0.5)
	}
	var lr LowRankSolver
	if err := lr.RefactorTrans(base, u, v); err != nil {
		t.Fatalf("RefactorTrans: %v", err)
	}

	// Dense reference: B = A + Σ uᵢvᵢᵀ factored directly.
	bm := a.Clone()
	bd := bm.Data()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			bd[i*n+j] += u[0][i]*v[0][j] + u[1][i]*v[1][j]
		}
	}
	dl, err := Factor(bm)
	if err != nil {
		t.Fatalf("dense Factor(B): %v", err)
	}

	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = src.Float64() - 0.5
	}
	got, want := make([]float64, n), make([]float64, n)
	if err := lowRankSolve(&lr, got, rhs); err != nil {
		t.Fatalf("low-rank solve: %v", err)
	}
	if err := dl.SolveVecTo(want, rhs); err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestLowRankSolverRowPerturbation exercises the line-search probe
// pattern: k rows of A change, expressed as Σ e_{rᵢ}·δᵢᵀ over the
// unperturbed factorization (of Aᵀ), so the probe reuses the base LU
// instead of refactoring.
func TestLowRankSolverRowPerturbation(t *testing.T) {
	src := rng.New(12)
	n := 50
	a := diagDominantSparse(src, n, 0.12)
	base, err := factorSparse(transpose(a), 0)
	if err != nil {
		t.Fatalf("Refactor(Aᵀ): %v", err)
	}

	rows := []int{3, 17, 41}
	u := make([][]float64, len(rows))
	v := make([][]float64, len(rows))
	pert := a.Clone()
	pd := pert.Data()
	for i, r := range rows {
		u[i] = make([]float64, n)
		u[i][r] = 1
		v[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			// Small perturbation keeps the matrix dominant and nonsingular.
			delta := 0.05 * (src.Float64() - 0.5)
			v[i][j] = delta
			pd[r*n+j] += delta
		}
	}
	var lr LowRankSolver
	if err := lr.RefactorTrans(base, u, v); err != nil {
		t.Fatalf("RefactorTrans: %v", err)
	}
	dl, err := Factor(pert)
	if err != nil {
		t.Fatalf("dense Factor(perturbed): %v", err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = src.Float64() - 0.5
	}
	got, want := make([]float64, n), make([]float64, n)
	if err := lowRankSolve(&lr, got, b); err != nil {
		t.Fatalf("low-rank probe solve: %v", err)
	}
	if err := dl.SolveVecTo(want, b); err != nil {
		t.Fatalf("dense probe solve: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("probe x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestLowRankSolverRejectsBadShapes(t *testing.T) {
	a := diagDominantSparse(rng.New(14), 5, 0.5)
	base, err := factorSparse(a, 0)
	if err != nil {
		t.Fatalf("Refactor: %v", err)
	}
	var lr LowRankSolver
	if err := lr.RefactorTrans(base, nil, nil); !errors.Is(err, ErrDimension) {
		t.Fatalf("rank 0: err = %v, want ErrDimension", err)
	}
	if err := lr.RefactorTrans(base, [][]float64{make([]float64, 4)}, [][]float64{make([]float64, 5)}); !errors.Is(err, ErrDimension) {
		t.Fatalf("short column: err = %v, want ErrDimension", err)
	}
	if err := lr.RefactorTrans(base, [][]float64{make([]float64, 5)}, nil); !errors.Is(err, ErrDimension) {
		t.Fatalf("unpaired column: err = %v, want ErrDimension", err)
	}
}

// TestLowRankSolverRefactorTransReuse checks the in-place transposed
// load: it solves (Bᵀ + UVᵀ) x = b over a factorization of B, a reloaded
// solver gives exactly the bits of a freshly loaded one, and reloading at
// an unchanged order and rank allocates nothing.
func TestLowRankSolverRefactorTransReuse(t *testing.T) {
	src := rng.New(12)
	n := 30
	a := diagDominantSparse(src, n, 0.2)
	base, err := factorSparse(a, 0)
	if err != nil {
		t.Fatalf("Refactor: %v", err)
	}
	update := func() (u, v [][]float64) {
		u = [][]float64{make([]float64, n), make([]float64, n)}
		v = [][]float64{make([]float64, n), make([]float64, n)}
		for r := range u {
			for i := 0; i < n; i++ {
				u[r][i] = 0.1 * (src.Float64() - 0.5)
				v[r][i] = 0.1 * (src.Float64() - 0.5)
			}
		}
		return u, v
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = src.Float64() - 0.5
	}

	var reused LowRankSolver
	for round := 0; round < 2; round++ {
		u, v := update()
		if err := reused.RefactorTrans(base, u, v); err != nil {
			t.Fatalf("round %d: RefactorTrans: %v", round, err)
		}
		var fresh LowRankSolver
		if err := fresh.RefactorTrans(base, u, v); err != nil {
			t.Fatalf("round %d: fresh RefactorTrans: %v", round, err)
		}
		// Dense reference: Aᵀ + Σ uᵣvᵣᵀ factored directly.
		bm := transpose(a)
		bd := bm.Data()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				bd[i*n+j] += u[0][i]*v[0][j] + u[1][i]*v[1][j]
			}
		}
		dl, err := Factor(bm)
		if err != nil {
			t.Fatalf("dense Factor: %v", err)
		}
		got, again, want := make([]float64, n), make([]float64, n), make([]float64, n)
		if err := lowRankSolve(&reused, got, rhs); err != nil {
			t.Fatalf("round %d: reused solve: %v", round, err)
		}
		if err := lowRankSolve(&fresh, again, rhs); err != nil {
			t.Fatalf("round %d: fresh solve: %v", round, err)
		}
		if err := dl.SolveVecTo(want, rhs); err != nil {
			t.Fatalf("dense solve: %v", err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(again[i]) {
				t.Fatalf("round %d: x[%d] reused %v, fresh %v", round, i, got[i], again[i])
			}
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("round %d: x[%d] = %g, want %g", round, i, got[i], want[i])
			}
		}
		if allocs := testing.AllocsPerRun(5, func() {
			if err := reused.RefactorTrans(base, u, v); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("round %d: RefactorTrans allocates %v per reload, want 0", round, allocs)
		}
	}
}
