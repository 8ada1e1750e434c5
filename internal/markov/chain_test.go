package markov

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// twoState builds the classic two-state chain [[1-a, a], [b, 1-b]].
func twoState(t *testing.T, a, b float64) *Chain {
	t.Helper()
	p, err := mat.NewFromRows([][]float64{{1 - a, a}, {b, 1 - b}})
	if err != nil {
		t.Fatalf("build matrix: %v", err)
	}
	c, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// randomErgodic builds a random chain with strictly positive entries
// (hence ergodic).
func randomErgodic(src *rng.Source, n int) *Chain {
	p := mat.New(n, n)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		src.DirichletRow(row, 1)
		for j := range row {
			// Mix with uniform mass to bound entries away from zero.
			row[j] = 0.9*row[j] + 0.1/float64(n)
		}
		p.SetRow(i, row)
	}
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}

// identity returns the n-by-n identity matrix.
func identity(n int) *mat.Matrix {
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// mul returns the product a*b through mat.MulTo.
func mul(t *testing.T, a, b *mat.Matrix) *mat.Matrix {
	t.Helper()
	out := mat.New(a.Rows(), b.Cols())
	if err := mat.MulTo(out, a, b); err != nil {
		t.Fatalf("MulTo: %v", err)
	}
	return out
}

// add returns a + b.
func add(t *testing.T, a, b *mat.Matrix) *mat.Matrix {
	t.Helper()
	out := a.Clone()
	if err := mat.AddInPlace(out, 1, b); err != nil {
		t.Fatalf("AddInPlace: %v", err)
	}
	return out
}

func TestNewRejectsNonStochastic(t *testing.T) {
	cases := []struct {
		name string
		rows [][]float64
	}{
		{"bad row sum", [][]float64{{0.5, 0.4}, {0.5, 0.5}}},
		{"negative entry", [][]float64{{1.2, -0.2}, {0.5, 0.5}}},
		{"entry above one", [][]float64{{1.5, -0.5}, {0.5, 0.5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := mat.NewFromRows(tc.rows)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if _, err := New(p); !errors.Is(err, ErrNotStochastic) {
				t.Errorf("err = %v, want ErrNotStochastic", err)
			}
		})
	}
	if err := CheckStochastic(mat.New(2, 3)); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("non-square err = %v, want ErrNotStochastic", err)
	}
}

func TestNewClonesInput(t *testing.T) {
	p, _ := mat.NewFromRows([][]float64{{0.5, 0.5}, {0.5, 0.5}})
	c, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.Set(0, 0, 0.9)
	if c.At(0, 0) != 0.5 {
		t.Error("Chain shares storage with caller's matrix")
	}
}

// graph builds p from rows and a Solver sized for it, for the solver's
// graph checks.
func graph(t *testing.T, rows [][]float64) (*Solver, *mat.Matrix) {
	t.Helper()
	p, err := mat.NewFromRows(rows)
	if err != nil {
		t.Fatalf("build matrix: %v", err)
	}
	return NewSolver(p.Rows()), p
}

func TestIrreducible(t *testing.T) {
	// Block-diagonal chain is reducible.
	s, p := graph(t, [][]float64{
		{0.5, 0.5, 0, 0},
		{0.5, 0.5, 0, 0},
		{0, 0, 0.5, 0.5},
		{0, 0, 0.5, 0.5},
	})
	if s.reachesAll(p, false) || s.reachesAll(p, true) {
		t.Error("block-diagonal chain reported irreducible")
	}
	if s.ergodic(p) {
		t.Error("block-diagonal chain reported ergodic")
	}
	if _, err := s.Solve(p); !errors.Is(err, ErrNotErgodic) {
		t.Errorf("Solve err = %v, want ErrNotErgodic", err)
	}
}

func TestIrreducibleOneWay(t *testing.T) {
	// State 1 is absorbing: reachable from 0 but not back.
	s, p := graph(t, [][]float64{{0.5, 0.5}, {0, 1}})
	if !s.reachesAll(p, false) {
		t.Error("state 0 does not reach the absorbing state")
	}
	if s.reachesAll(p, true) {
		t.Error("absorbing chain reported irreducible")
	}
}

func TestPeriod(t *testing.T) {
	// Deterministic 2-cycle has period 2.
	s2, p2 := graph(t, [][]float64{{0, 1}, {1, 0}})
	if got := s2.period(p2); got != 2 {
		t.Errorf("2-cycle period = %d, want 2", got)
	}
	if s2.ergodic(p2) {
		t.Error("2-cycle reported ergodic")
	}
	if _, err := s2.Solve(p2); !errors.Is(err, ErrNotErgodic) {
		t.Errorf("Solve err = %v, want ErrNotErgodic", err)
	}

	// A self-loop makes it aperiodic.
	s1, p1 := graph(t, [][]float64{{0.1, 0.9}, {1, 0}})
	if got := s1.period(p1); got != 1 {
		t.Errorf("self-loop period = %d, want 1", got)
	}
	if !s1.ergodic(p1) {
		t.Error("aperiodic irreducible chain reported non-ergodic")
	}

	// Deterministic 3-cycle has period 3.
	s3, p3 := graph(t, [][]float64{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}})
	if got := s3.period(p3); got != 3 {
		t.Errorf("3-cycle period = %d, want 3", got)
	}
}

// TestSolverNonErgodicDiagnostics pins the detail of the Solver's
// ErrNotErgodic: whether the chain is irreducible, and the period of
// state 0's class, from the solver's own graph sweeps.
func TestSolverNonErgodicDiagnostics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rows   [][]float64
		detail string
	}{
		{"block-diagonal", [][]float64{
			{0.5, 0.5, 0, 0}, {0.5, 0.5, 0, 0}, {0, 0, 0.5, 0.5}, {0, 0, 0.5, 0.5},
		}, "irreducible=false period=1"},
		{"absorbing", [][]float64{{0.5, 0.5}, {0, 1}}, "irreducible=false period=1"},
		{"2-cycle", [][]float64{{0, 1}, {1, 0}}, "irreducible=true period=2"},
		{"3-cycle", [][]float64{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}}, "irreducible=true period=3"},
		// State 0's class is the 2-cycle; the self-loop state is cut off.
		{"2-cycle-and-self-loop", [][]float64{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}}, "irreducible=false period=2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, p := graph(t, tc.rows)
			_, err := s.Solve(p)
			if !errors.Is(err, ErrNotErgodic) {
				t.Fatalf("err = %v, want ErrNotErgodic", err)
			}
			if want := ErrNotErgodic.Error() + ": " + tc.detail; err.Error() != want {
				t.Errorf("err = %q, want %q", err, want)
			}
		})
	}
	// The self-loop on the cycle itself makes it ergodic: no error.
	s, p := graph(t, [][]float64{{0.1, 0.9}, {1, 0}})
	if _, err := s.Solve(p); err != nil {
		t.Errorf("2-cycle with a self-loop on it: %v", err)
	}
}

func TestStationaryTwoState(t *testing.T) {
	a, b := 0.3, 0.1
	c := twoState(t, a, b)
	s, err := c.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	wantPi0 := b / (a + b)
	wantPi1 := a / (a + b)
	if math.Abs(s.Pi[0]-wantPi0) > 1e-12 || math.Abs(s.Pi[1]-wantPi1) > 1e-12 {
		t.Errorf("π = %v, want [%v %v]", s.Pi, wantPi0, wantPi1)
	}
}

func TestStationaryFixedPointProperty(t *testing.T) {
	src := rng.New(101)
	for trial := 0; trial < 100; trial++ {
		n := 2 + src.IntN(8)
		c := randomErgodic(src, n)
		s, err := c.Solve()
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		var sum float64
		for _, v := range s.Pi {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: Σπ = %v", trial, sum)
		}
		piP, err := c.Step(s.Pi)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		for i := range piP {
			if math.Abs(piP[i]-s.Pi[i]) > 1e-9 {
				t.Fatalf("trial %d: (πP)_%d = %v, π_%d = %v", trial, i, piP[i], i, s.Pi[i])
			}
		}
	}
}

func TestStationaryMatchesPowerIteration(t *testing.T) {
	src := rng.New(102)
	for trial := 0; trial < 20; trial++ {
		n := 2 + src.IntN(6)
		c := randomErgodic(src, n)
		s, err := c.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		power, err := c.StationaryPower(100000, 1e-13)
		if err != nil {
			t.Fatalf("StationaryPower: %v", err)
		}
		for i := range power {
			if math.Abs(power[i]-s.Pi[i]) > 1e-8 {
				t.Fatalf("trial %d: power[%d] = %v, direct = %v", trial, i, power[i], s.Pi[i])
			}
		}
	}
}

func TestFundamentalMatrixIdentities(t *testing.T) {
	src := rng.New(103)
	for trial := 0; trial < 50; trial++ {
		n := 2 + src.IntN(6)
		c := randomErgodic(src, n)
		s, err := c.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		id := identity(n)
		imp, _ := mat.SubM(id, s.P)
		if prod := mul(t, s.Z, add(t, imp, s.W)); mat.MaxAbsDiff(prod, id) > 1e-8 {
			t.Fatalf("trial %d: Z(I-P+W) != I", trial)
		}
		// WZ = W and ZW = W.
		if wz := mul(t, s.W, s.Z); mat.MaxAbsDiff(wz, s.W) > 1e-8 {
			t.Fatalf("trial %d: WZ != W", trial)
		}
		if zw := mul(t, s.Z, s.W); mat.MaxAbsDiff(zw, s.W) > 1e-8 {
			t.Fatalf("trial %d: ZW != W", trial)
		}
	}
}

func TestGroupInverseAxioms(t *testing.T) {
	src := rng.New(104)
	for trial := 0; trial < 50; trial++ {
		n := 2 + src.IntN(6)
		c := randomErgodic(src, n)
		s, err := c.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		aSharp, err := s.GroupInverse()
		if err != nil {
			t.Fatalf("GroupInverse: %v", err)
		}
		a, _ := mat.SubM(identity(n), s.P)

		// A A# A = A.
		if t2 := mul(t, mul(t, a, aSharp), a); mat.MaxAbsDiff(t2, a) > 1e-8 {
			t.Fatalf("trial %d: A A# A != A", trial)
		}
		// A# A A# = A#.
		if t4 := mul(t, mul(t, aSharp, a), aSharp); mat.MaxAbsDiff(t4, aSharp) > 1e-8 {
			t.Fatalf("trial %d: A# A A# != A#", trial)
		}
		// Commutation: A A# = A# A = I - W (Eq. 5).
		aas := mul(t, a, aSharp)
		if asa := mul(t, aSharp, a); mat.MaxAbsDiff(aas, asa) > 1e-8 {
			t.Fatalf("trial %d: A A# != A# A", trial)
		}
		imw, _ := mat.SubM(identity(n), s.W)
		if mat.MaxAbsDiff(aas, imw) > 1e-8 {
			t.Fatalf("trial %d: A A# != I - W", trial)
		}
		// Z = I + P A# (Eq. 7).
		if zAlt := add(t, identity(n), mul(t, s.P, aSharp)); mat.MaxAbsDiff(zAlt, s.Z) > 1e-8 {
			t.Fatalf("trial %d: Z != I + P A#", trial)
		}
	}
}

func TestFirstPassageTwoState(t *testing.T) {
	a, b := 0.3, 0.1
	c := twoState(t, a, b)
	s, err := c.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// From 0, reaching 1 is geometric with success a: R_01 = 1/a.
	if got := s.R.At(0, 1); math.Abs(got-1/a) > 1e-9 {
		t.Errorf("R_01 = %v, want %v", got, 1/a)
	}
	if got := s.R.At(1, 0); math.Abs(got-1/b) > 1e-9 {
		t.Errorf("R_10 = %v, want %v", got, 1/b)
	}
	// Mean return times are 1/π_i.
	for i := 0; i < 2; i++ {
		if got := s.R.At(i, i); math.Abs(got-1/s.Pi[i]) > 1e-9 {
			t.Errorf("R_%d%d = %v, want 1/π = %v", i, i, got, 1/s.Pi[i])
		}
	}
}

// TestFirstPassageFirstStepEquation validates R against the first-step
// recurrence R_ij = 1 + Σ_{k≠j} p_ik R_kj on random ergodic chains.
func TestFirstPassageFirstStepEquation(t *testing.T) {
	src := rng.New(105)
	for trial := 0; trial < 50; trial++ {
		n := 2 + src.IntN(7)
		c := randomErgodic(src, n)
		s, err := c.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 1.0
				for k := 0; k < n; k++ {
					if k == j {
						continue
					}
					want += s.P.At(i, k) * s.R.At(k, j)
				}
				if got := s.R.At(i, j); math.Abs(got-want) > 1e-7 {
					t.Fatalf("trial %d: R_%d%d = %v, first-step gives %v", trial, i, j, got, want)
				}
			}
		}
	}
}

func TestFirstPassagePositivity(t *testing.T) {
	src := rng.New(106)
	for trial := 0; trial < 30; trial++ {
		c := randomErgodic(src, 2+src.IntN(6))
		s, err := c.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		n := len(s.Pi)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if s.R.At(i, j) < 1-1e-12 {
					t.Fatalf("trial %d: R_%d%d = %v < 1", trial, i, j, s.R.At(i, j))
				}
			}
		}
	}
}

func TestEntropyRateUniform(t *testing.T) {
	n := 4
	p := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.Set(i, j, 1/float64(n))
		}
	}
	c, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s, err := c.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if got := s.EntropyRate(); math.Abs(got-math.Log(float64(n))) > 1e-9 {
		t.Errorf("H = %v, want ln %d = %v", got, n, math.Log(float64(n)))
	}
}

func TestEntropyRateTwoState(t *testing.T) {
	a, b := 0.3, 0.1
	c := twoState(t, a, b)
	s, err := c.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	hBin := func(x float64) float64 {
		return -(x*math.Log(x) + (1-x)*math.Log(1-x))
	}
	want := s.Pi[0]*hBin(a) + s.Pi[1]*hBin(b)
	if got := s.EntropyRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("H = %v, want %v", got, want)
	}
}

func TestEntropyRateBounds(t *testing.T) {
	src := rng.New(107)
	for trial := 0; trial < 50; trial++ {
		n := 2 + src.IntN(7)
		c := randomErgodic(src, n)
		s, err := c.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		h := s.EntropyRate()
		if h < -1e-12 || h > math.Log(float64(n))+1e-12 {
			t.Fatalf("trial %d: H = %v outside [0, ln %d]", trial, h, n)
		}
	}
}

func TestKemenyConstantIndependence(t *testing.T) {
	src := rng.New(108)
	for trial := 0; trial < 30; trial++ {
		n := 2 + src.IntN(6)
		c := randomErgodic(src, n)
		s, err := c.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		k := s.KemenyConstant()
		for i := 0; i < n; i++ {
			var sum float64
			for j := 0; j < n; j++ {
				if j != i {
					sum += s.Pi[j] * s.R.At(i, j)
				}
			}
			if math.Abs(sum-k) > 1e-7 {
				t.Fatalf("trial %d: Σ_j π_j R_%dj = %v, Kemeny = %v", trial, i, sum, k)
			}
		}
	}
}

// TestConditionNumberBoundsPerturbation verifies the Funderlic–Meyer
// sensitivity bound empirically: for random ergodic chains and random
// stochastic perturbations, the stationary shift stays within
// κ·‖ΔP‖_∞.
func TestConditionNumberBoundsPerturbation(t *testing.T) {
	src := rng.New(606)
	for trial := 0; trial < 40; trial++ {
		n := 2 + src.IntN(5)
		c := randomErgodic(src, n)
		s, err := c.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		kappa, err := s.ConditionNumber()
		if err != nil {
			t.Fatalf("ConditionNumber: %v", err)
		}
		if kappa <= 0 {
			t.Fatalf("trial %d: κ = %v", trial, kappa)
		}
		// Random ergodic perturbation target.
		c2 := randomErgodic(src, n)
		s2, err := c2.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		// ‖ΔP‖_∞ = max row sum of |Δ|.
		var normInf float64
		for i := 0; i < n; i++ {
			var rowAbs float64
			for j := 0; j < n; j++ {
				d := s2.P.At(i, j) - s.P.At(i, j)
				if d < 0 {
					d = -d
				}
				rowAbs += d
			}
			if rowAbs > normInf {
				normInf = rowAbs
			}
		}
		for i := 0; i < n; i++ {
			if shift := math.Abs(s2.Pi[i] - s.Pi[i]); shift > kappa*normInf+1e-9 {
				t.Fatalf("trial %d: |Δπ_%d| = %v exceeds κ‖ΔP‖ = %v",
					trial, i, shift, kappa*normInf)
			}
		}
	}
}

// zeroRowSumDirection builds a random perturbation direction whose rows
// sum to zero — a tangent vector of the stochastic-matrix manifold.
func zeroRowSumDirection(src *rng.Source, n int) *mat.Matrix {
	v := mat.New(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			x := src.Norm(0, 1)
			v.Set(i, j, x)
			sum += x
		}
		for j := 0; j < n; j++ {
			v.Set(i, j, v.At(i, j)-sum/float64(n))
		}
	}
	return v
}

func TestStepDistribution(t *testing.T) {
	c := twoState(t, 0.5, 0.5)
	out, err := c.Step([]float64{1, 0})
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if math.Abs(out[0]-0.5) > 1e-12 || math.Abs(out[1]-0.5) > 1e-12 {
		t.Errorf("Step = %v, want [0.5 0.5]", out)
	}
}

// TestChainSolveFormsZ2 checks that the allocating Chain.Solve returns Z²
// already formed, matching Z·Z bit for bit.
func TestChainSolveFormsZ2(t *testing.T) {
	c, err := New(sparseRingP(rng.New(47), 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := c.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.z2 == nil {
		t.Fatal("Chain.Solve left Z² unformed")
	}
	zz := mul(t, sol.Z, sol.Z)
	if d := maxRelDiff(sol.Z2(), zz); d != 0 {
		t.Fatalf("Z2 differs from Z*Z by %g", d)
	}
}
