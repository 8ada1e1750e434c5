package markov

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// sameBits reports whether two matrices hold identical float64 bits.
func sameBits(a, b *mat.Matrix) bool { return sameFloats(a.Data(), b.Data()) }

// TestStagesComposeToSolve checks that the stationary stage followed by
// the fundamental stage yields exactly the bits of Solve, on both
// backends, and that a stationary stage never exposes the fundamental
// matrices of the solver's previous chain.
func TestStagesComposeToSolve(t *testing.T) {
	for _, method := range []Method{MethodDense, MethodSparse} {
		for _, p := range []*mat.Matrix{
			randomErgodic(rng.New(21), 9).p,
			sparseRingP(rng.New(22), 48, 3),
		} {
			n := p.Rows()
			ref := NewSolver(n)
			ref.SetMethod(method)
			want, err := ref.Solve(p)
			if err != nil {
				t.Fatal(err)
			}

			s := NewSolver(n)
			s.SetMethod(method)
			// A full solve of another chain first, so stale buffers exist.
			if _, err := s.Solve(randomErgodic(rng.New(23), n).p); err != nil {
				t.Fatal(err)
			}
			got, err := s.SolveStationary(p)
			if err != nil {
				t.Fatal(err)
			}
			if got.W != nil || got.Z != nil || got.R != nil {
				t.Fatalf("%v M=%d: the stationary stage exposes fundamental-stage state", method, n)
			}
			if got.Method() != want.Method() {
				t.Fatalf("%v M=%d: method %v, Solve reports %v", method, n, got.Method(), want.Method())
			}
			for i := range want.Pi {
				if math.Float64bits(got.Pi[i]) != math.Float64bits(want.Pi[i]) {
					t.Fatalf("%v M=%d: π_%d differs from Solve", method, n, i)
				}
			}
			if err := got.Fundamental(); err != nil {
				t.Fatal(err)
			}
			for _, m := range []struct {
				name      string
				got, want *mat.Matrix
			}{{"W", got.W, want.W}, {"Z", got.Z, want.Z}, {"R", got.R, want.R}} {
				if !sameBits(m.got, m.want) {
					t.Errorf("%v M=%d: %s differs from Solve", method, n, m.name)
				}
			}
		}
	}
}

// TestCopyOfUnformedSolution checks Clone and CopyTo of a solution whose
// fundamental stage was never formed: the copy keeps π, reads W, Z and
// R as nil — also when the destination held a formed solution before —
// and reports ErrNoFundamental instead of forming anything. A copy of a
// formed solution carries its Z.
func TestCopyOfUnformedSolution(t *testing.T) {
	p := randomErgodic(rng.New(31), 7).p
	s := NewSolver(7)
	full, err := s.Solve(randomErgodic(rng.New(32), 7).p)
	if err != nil {
		t.Fatal(err)
	}
	dst := full.Clone()
	if dst.Z == nil || !sameBits(dst.Z, full.Z) {
		t.Fatal("Clone of a formed solution lost Z")
	}

	sol, err := s.SolveStationary(p)
	if err != nil {
		t.Fatal(err)
	}
	sol.CopyTo(dst)
	for _, c := range []*Solution{sol.Clone(), dst} {
		if c.W != nil || c.Z != nil || c.R != nil {
			t.Fatal("copy of an unformed solution exposes W, Z or R")
		}
		if !errors.Is(c.Fundamental(), ErrNoFundamental) {
			t.Fatalf("Fundamental on an unformed copy: %v", c.Fundamental())
		}
		if c.Z2() != nil {
			t.Fatal("Z2 of an unformed copy is not nil")
		}
		if !math.IsNaN(c.KemenyConstant()) {
			t.Fatal("KemenyConstant of an unformed copy is not NaN")
		}
		for i := range sol.Pi {
			if c.Pi[i] != sol.Pi[i] {
				t.Fatalf("copy lost π_%d", i)
			}
		}
	}
	// The source still forms its stage from the solver.
	if err := sol.Fundamental(); err != nil {
		t.Fatal(err)
	}
	sol.CopyTo(dst)
	if dst.Z == nil || !sameBits(dst.Z, sol.Z) || dst.Fundamental() != nil {
		t.Fatal("CopyTo of a formed solution lost Z")
	}
}
