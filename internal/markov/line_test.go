package markov

import (
	"errors"
	"fmt"
	"math"
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
	l := NewLine(n, nil)
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
		got, err := s.SolveLine(l, delta)
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
	if err := NewLine(n, nil).Reset(sol.Clone(), d); !errors.Is(err, ErrNoFundamental) {
		t.Errorf("copied stationary stage: err = %v, want ErrNoFundamental", err)
	}
	if _, err := NewSolver(n+1).SolveLine(l, 0); !errors.Is(err, ErrDirection) {
		t.Errorf("order mismatch: err = %v, want ErrDirection", err)
	}
	if _, err := NewSolver(n).SolveLine(l, 1e3); !errors.Is(err, ErrNotStochastic) {
		t.Errorf("probe off the simplex: err = %v, want ErrNotStochastic", err)
	}
	bad := d.Clone()
	bad.Set(2, 3, bad.At(2, 3)+1e-3)
	lb := NewLine(n, nil)
	if err := lb.Reset(sol, bad); err != nil {
		t.Fatalf("non-zero-sum row: Reset: %v", err)
	}
	if _, err := NewSolver(n).SolveLine(lb, 1); !errors.Is(err, ErrNotStochastic) {
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
	if _, err := s.SolveLine(l, 0.5); err != nil { // allocates the scratch
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := l.Reset(sol, d); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SolveLine(l, 0.5); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("line build + probe allocate %v per run, want 0", allocs)
	}
}

// certFixture returns a random line for the certificate's soundness
// property: a P whose rows carry, at random, an entry at 0, at 1e-13 or
// at the descent's probability floor 1e-7, and a direction at one of two
// scales whose rows sum to 0, ±1e-12, ±1e-7 or ±1e-3 and which may hold
// a NaN or an infinite entry. P and D are returned beside the line.
func certFixture(t *testing.T, src *rng.Source, n int) (*mat.Matrix, *mat.Matrix, *Line) {
	t.Helper()
	p := randomErgodic(src, n).p
	pd := p.Data()
	for i := 0; i < n; i++ {
		if src.IntN(3) != 0 {
			continue
		}
		row := pd[i*n : (i+1)*n]
		j := (i + 1 + src.IntN(n-1)) % n // off the diagonal: P stays ergodic
		big := 0
		for k := range row {
			if row[k] > row[big] {
				big = k
			}
		}
		if big == j {
			continue
		}
		v := []float64{0, 1e-13, 1e-7}[src.IntN(3)]
		row[big] += row[j] - v
		row[j] = v
	}
	d := zeroRowSumDirection(src, n)
	mat.ScaleInPlace([]float64{1e-2, 1e-4}[src.IntN(2)]/mat.MaxAbs(d), d)
	dd := d.Data()
	for i := 0; i < n; i++ {
		off := []float64{0, 1e-12, 1e-7, 1e-3}[src.IntN(4)]
		if src.IntN(2) == 0 {
			off = -off
		}
		dd[i*n+src.IntN(n)] += off
	}
	switch src.IntN(8) {
	case 0:
		dd[src.IntN(n*n)] = math.NaN()
	case 1:
		dd[src.IntN(n*n)] = math.Inf(1)
	case 2:
		dd[src.IntN(n*n)] = math.Inf(-1)
	}
	sol, err := NewSolver(n).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLine(n, nil)
	if err := l.Reset(sol, d); err != nil {
		t.Fatal(err)
	}
	return p, d, l
}

// refScan is the direct solve's check of q as two passes, the loops
// CheckStochastic and the positivity shortcut ran before they shared
// one scan, followed by the ergodicity sweeps: the reference the
// certificate and the one-scan check are held to.
func refScan(s *Solver, q *mat.Matrix) error {
	n := q.Rows()
	qd := q.Data()
	for i := 0; i < n; i++ {
		row := qd[i*n : (i+1)*n]
		var sum float64
		for j, v := range row {
			if v < -StochasticTol || v > 1+StochasticTol || math.IsNaN(v) {
				return fmt.Errorf("%w: p[%d][%d] = %v", ErrNotStochastic, i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("%w: row %d sums to %v", ErrNotStochastic, i, sum)
		}
	}
	positive := true
	for _, v := range qd {
		if !(v > edgeTol) {
			positive = false
			break
		}
	}
	if positive {
		return nil
	}
	irreducible := s.reachesAll(q, false) && s.reachesAll(q, true)
	if !irreducible || s.period(q) != 1 {
		return fmt.Errorf("%w: irreducible=%v period=%d", ErrNotErgodic, irreducible, s.period(q))
	}
	return nil
}

// refProbe is the reference a line probe must equal: the matrix a
// descent step forms (a copy of P, plus δ·D unless δ = 0), refScan,
// the line's shifted solve and checkPositive.
func refProbe(s *Solver, l *Line, p, d *mat.Matrix, delta float64) (*mat.Matrix, []float64, error) {
	q := p.Clone()
	if delta != 0 {
		if err := mat.AddInPlace(q, delta, d); err != nil {
			return nil, nil, err
		}
	}
	if err := refScan(s, q); err != nil {
		return q, nil, err
	}
	pi := make([]float64, l.n)
	if err := l.stationaryAt(pi, delta, mat.NewShiftedScratch(l.n)); err != nil {
		if errors.Is(err, mat.ErrSingular) {
			return q, nil, fmt.Errorf("%w: stationary system singular on the search line", ErrNotErgodic)
		}
		return q, nil, err
	}
	return q, pi, checkPositive(pi)
}

// sameFloats reports whether a and b hold the same float64 bit
// patterns.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// certViolations counts the steps δ_c and the float below it, of a
// certificate computed with the given safety factor, whose matrix fails
// the reference scan: steps the certificate vouches for although a
// direct solve rejects them.
func certViolations(s *Solver, l *Line, p, d *mat.Matrix, safety float64) int {
	dc := certify(l.p, l.d.Data(), l.n, safety)
	bad := 0
	for _, delta := range []float64{dc, math.Nextafter(dc, 0)} {
		if !(delta >= 0) {
			continue
		}
		q := p.Clone()
		if delta != 0 {
			if err := mat.AddInPlace(q, delta, d); err != nil {
				panic(err)
			}
		}
		if refScan(s, q) != nil {
			bad++
		}
	}
	return bad
}

// TestLineCertificateSound is the certificate's soundness property. On
// random lines (certFixture), at δ negative, 0, NaN, ±Inf, at δ_c and
// the floats on either side of it, and far past the point where an
// entry leaves [0, 1], SolveLine must equal refProbe: the same error —
// errors.Is class and message — or the same π and probed matrix, bit
// for bit. Every certified δ must pass the reference scan. The same
// property with the rounding terms dropped from the row-sum bound
// (safety 0) must fail somewhere, so the property can tell a sound
// certificate from an unsound one.
func TestLineCertificateSound(t *testing.T) {
	src := rng.New(71)
	certifiedProbes, loose := 0, 0
	for _, n := range []int{3, 5, 8, 12} {
		for trial := 0; trial < 60; trial++ {
			p, d, l := certFixture(t, src, n)
			s, ref := NewSolver(n), NewSolver(n)
			reach := 1.0
			if m := mat.MaxAbs(d); m > 0 && !math.IsNaN(m) {
				reach = 4 / m
			}
			dc := l.cert
			deltas := []float64{-1e-3, math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
				reach, 1e300, 1e-9}
			if dc >= 0 {
				deltas = append(deltas, dc, math.Nextafter(dc, 0), math.Nextafter(dc, math.Inf(1)), dc/2)
			}
			for _, delta := range deltas {
				q, pi, want := refProbe(ref, l, p, d, delta)
				got, err := s.SolveLine(l, delta)
				if (err == nil) != (want == nil) {
					t.Fatalf("n=%d trial %d δ=%g: SolveLine err %v, reference %v", n, trial, delta, err, want)
				}
				if err != nil {
					for _, class := range []error{ErrNotStochastic, ErrNotErgodic} {
						if errors.Is(err, class) != errors.Is(want, class) {
							t.Fatalf("n=%d trial %d δ=%g: err %v, reference %v", n, trial, delta, err, want)
						}
					}
					if err.Error() != want.Error() {
						t.Fatalf("n=%d trial %d δ=%g: message %q, reference %q", n, trial, delta, err, want)
					}
				} else if !sameFloats(got.P.Data(), q.Data()) || !sameFloats(got.Pi, pi) {
					t.Fatalf("n=%d trial %d δ=%g: probe differs from the reference in P or π", n, trial, delta)
				}
				if l.certified(delta) {
					certifiedProbes++
					if err := refScan(ref, q); err != nil {
						t.Fatalf("n=%d trial %d: certified δ=%g (δ_c %g) fails the reference scan: %v",
							n, trial, delta, dc, err)
					}
				}
			}
			loose += certViolations(ref, l, p, d, 0)
		}
	}
	t.Logf("%d certified probes; %d violations with the rounding terms dropped", certifiedProbes, loose)
	if certifiedProbes == 0 {
		t.Error("no probe was certified")
	}
	if loose == 0 {
		t.Error("the certificate without its rounding terms vouched for no failing step: the property does not bite")
	}
}
