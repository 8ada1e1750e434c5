package markov

import (
	"errors"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// lineFixture returns a random ergodic chain, a zero-row-sum direction
// scaled so P + δD stays positive for |δ| ≤ 1, and the line through the
// chain's solution along it, built with the given backend.
func lineFixture(t *testing.T, n int, method Method) (*mat.Matrix, *mat.Matrix, *Line) {
	t.Helper()
	src := rng.New(uint64(40 + n))
	p := randomErgodic(src, n).p
	d := zeroRowSumDirection(src, n)
	scale := mat.MaxAbs(d) / (0.05 / float64(n))
	mat.ScaleInPlace(1/scale, d)
	s := NewSolver(n)
	s.SetMethod(method)
	sol, err := s.SolveStationary(p)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLine(n)
	if err := l.Reset(sol, d); err != nil {
		t.Fatal(err)
	}
	return p, d, l
}

// TestLineSolutionFormsZ checks that a line-probe solution is a working
// stationary stage: it reports the dense backend and no sparse handle
// whatever the solver's, and its Fundamental forms the Z, W and R of the
// probed matrix — the ones Solve computes for it.
func TestLineSolutionFormsZ(t *testing.T) {
	const n = 12
	for _, method := range []Method{MethodDense, MethodSparse} {
		p, d, l := lineFixture(t, n, method)
		q := p.Clone()
		const delta = 0.7
		if err := mat.AddInPlace(q, delta, d); err != nil {
			t.Fatal(err)
		}
		want, err := NewSolver(n).Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSolver(n)
		s.SetMethod(method)
		// A full solve of another chain first, so stale matrices exist.
		if _, err := s.Solve(p); err != nil {
			t.Fatal(err)
		}
		got, err := s.SolveLine(l, q, delta)
		if err != nil {
			t.Fatal(err)
		}
		if got.Method() != MethodDense || got.Z != nil {
			t.Fatalf("%v: line solution reports %v, Z formed %v",
				method, got.Method(), got.Z != nil)
		}
		if err := got.Fundamental(); err != nil {
			t.Fatal(err)
		}
		for name, pair := range map[string][2]*mat.Matrix{
			"Z": {got.Z, want.Z}, "W": {got.W, want.W}, "R": {got.R, want.R},
		} {
			if d := mat.MaxAbsDiff(pair[0], pair[1]); d > 1e-12*mat.MaxAbs(pair[1]) {
				t.Errorf("%v: %s differs from Solve's by %.3g", method, name, d)
			}
		}
	}
}

// TestLineRejects covers the errors of the line layer: a line of the
// wrong order, a copied solution with no fundamental stage to build
// from, a probe that leaves the stochastic matrices, and a direction
// whose rows do not sum to zero, which builds but fails at its first
// probe off δ = 0.
func TestLineRejects(t *testing.T) {
	const n = 6
	p, d, l := lineFixture(t, n, MethodDense)
	sol, err := NewSolver(n).SolveStationary(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewLine(n).Reset(sol.Clone(), d); !errors.Is(err, ErrNoFundamental) {
		t.Errorf("copied stationary stage: err = %v, want ErrNoFundamental", err)
	}
	if _, err := NewSolver(n+1).SolveLine(l, p, 0); !errors.Is(err, ErrDirection) {
		t.Errorf("order mismatch: err = %v, want ErrDirection", err)
	}
	far := p.Clone()
	if err := mat.AddInPlace(far, 1e3, d); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSolver(n).SolveLine(l, far, 1e3); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("probe off the simplex: err = %v, want ErrNotStochastic", err)
	}
	bad := d.Clone()
	bad.Set(2, 3, bad.At(2, 3)+1e-3)
	lb := NewLine(n)
	if err := lb.Reset(sol, bad); err != nil {
		t.Fatalf("non-zero-sum row: Reset: %v", err)
	}
	q := p.Clone()
	if err := mat.AddInPlace(q, 1, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSolver(n).SolveLine(lb, q, 1); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("non-zero-sum row: probe err = %v, want ErrNotStochastic", err)
	}
}

// TestSolveLineZeroAllocs pins the allocation-free steady state of a
// line build and of a probe's stationary stage.
func TestSolveLineZeroAllocs(t *testing.T) {
	const n = 16
	p, d, l := lineFixture(t, n, MethodDense)
	base := NewSolver(n)
	sol, err := base.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(n)
	q := p.Clone()
	if err := mat.AddInPlace(q, 0.5, d); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveLine(l, q, 0.5); err != nil { // allocates the scratch
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := l.Reset(sol, d); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SolveLine(l, q, 0.5); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("line build + probe allocate %v per run, want 0", allocs)
	}
}
