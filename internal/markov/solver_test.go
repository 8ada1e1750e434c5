package markov

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// sparseRingP builds an n-state chain whose support is a ring plus k
// random shortcuts per row, with exact zeros off-support — the structural
// shape of a city-scale topology's neighbour graph.
func sparseRingP(src *rng.Source, n, k int) *mat.Matrix {
	p := mat.New(n, n)
	pd := p.Data()
	for i := 0; i < n; i++ {
		row := pd[i*n : (i+1)*n]
		row[i] = 1
		row[(i+1)%n] = 1
		for s := 0; s < k; s++ {
			row[src.IntN(n)] = 1
		}
		cnt := 0.0
		for _, v := range row {
			cnt += v
		}
		for j := range row {
			row[j] /= cnt
		}
	}
	return p
}

func maxRelDiff(a, b *mat.Matrix) float64 {
	ad, bd := a.Data(), b.Data()
	scale := 0.0
	for _, v := range bd {
		if m := math.Abs(v); m > scale {
			scale = m
		}
	}
	if scale == 0 {
		scale = 1
	}
	worst := 0.0
	for i := range ad {
		if d := math.Abs(ad[i]-bd[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// TestZ2Lazy pins the Z² accessor: Solve does not form the product, the
// accessor returns exactly mat.MulTo's Z·Z after a dense solve and on a
// Clone, and a later Solve re-arms it instead of serving the previous
// chain's product.
func TestZ2Lazy(t *testing.T) {
	src := rng.New(43)
	s := NewSolver(12)
	for round := 0; round < 2; round++ {
		p := sparseRingP(src, 12, 3)
		sol, err := s.Solve(p)
		if err != nil {
			t.Fatalf("round %d: solve: %v", round, err)
		}
		if round == 0 && sol.z2 != nil {
			t.Fatal("Solve formed Z² before any request")
		}
		zz := mul(t, sol.Z, sol.Z)
		if d := maxRelDiff(sol.Z2(), zz); d != 0 {
			t.Fatalf("round %d: Z2 differs from Z*Z by %g", round, d)
		}
		c := sol.Clone()
		if c.z2 != nil {
			t.Fatal("Clone copied or formed Z²")
		}
		if d := maxRelDiff(c.Z2(), zz); d != 0 {
			t.Fatalf("round %d: clone's Z2 differs from Z*Z by %g", round, d)
		}
	}
}

// fillRows gives every entry of p where keep(i, j) holds a random
// positive weight, leaves the rest exactly zero, and normalizes rows.
func fillRows(src *rng.Source, n int, keep func(i, j int) bool) *mat.Matrix {
	p := mat.New(n, n)
	pd := p.Data()
	for i := 0; i < n; i++ {
		row := pd[i*n : (i+1)*n]
		var sum float64
		for j := range row {
			if keep(i, j) {
				row[j] = 0.05 + src.Float64()
				sum += row[j]
			}
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return p
}

// TestErgodicShortcutAgreesWithGraphCheck is the property behind the
// Solver's O(M²) ergodicity shortcut: on every chain family — strictly
// positive, floored, sparse-support, periodic and reducible — the
// shortcut-taking check (the stochasticity scan's positivity, then the
// sweeps) returns what the BFS irreducibility and period sweeps return,
// and the shortcut fires exactly on the positive ones.
func TestErgodicShortcutAgreesWithGraphCheck(t *testing.T) {
	src := rng.New(53)
	families := []struct {
		name     string
		positive bool
		gen      func(n int) *mat.Matrix
	}{
		{"positive", true, func(n int) *mat.Matrix {
			return fillRows(src, n, func(i, j int) bool { return true })
		}},
		{"floored", true, func(n int) *mat.Matrix {
			// A descent iterate: one dominant entry per row, the rest at
			// the probability floor.
			p := fillRows(src, n, func(i, j int) bool { return j == (i+1)%n })
			pd := p.Data()
			for i := 0; i < n; i++ {
				row := pd[i*n : (i+1)*n]
				for j := range row {
					if row[j] == 0 {
						row[j] = 1e-7
					}
				}
				row[(i+1)%n] -= float64(n-1) * 1e-7
			}
			return p
		}},
		{"one-zero", false, func(n int) *mat.Matrix {
			i0, j0 := src.IntN(n), src.IntN(n)
			return fillRows(src, n, func(i, j int) bool { return i != i0 || j != j0 })
		}},
		{"sparse", false, func(n int) *mat.Matrix {
			// At most three entries per row, so never positive from 4 up.
			return sparseRingP(src, n+2, 1)
		}},
		{"periodic", false, func(n int) *mat.Matrix {
			// Bipartite: even states move only to odd ones and back.
			return fillRows(src, n, func(i, j int) bool { return (i+j)%2 == 1 })
		}},
		{"cycle", false, func(n int) *mat.Matrix {
			return fillRows(src, n, func(i, j int) bool { return j == (i+1)%n })
		}},
		{"reducible", false, func(n int) *mat.Matrix {
			h := n / 2
			return fillRows(src, n, func(i, j int) bool { return (i < h) == (j < h) })
		}},
		{"absorbing", false, func(n int) *mat.Matrix {
			return fillRows(src, n, func(i, j int) bool { return i != 0 || j == 0 })
		}},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			for n := 2; n <= 12; n++ {
				for trial := 0; trial < 5; trial++ {
					p := f.gen(n)
					if err := CheckStochastic(p); err != nil {
						t.Fatalf("n=%d: generator built a non-stochastic matrix: %v", n, err)
					}
					s := NewSolver(p.Rows())
					graph := s.reachesAll(p, false) && s.reachesAll(p, true) && s.period(p) == 1
					positive, err := scanStochastic(p)
					if err != nil {
						t.Fatal(err)
					}
					if got := positive || s.ergodic(p); got != graph {
						t.Fatalf("n=%d trial %d: ergodic = %v, graph check = %v", n, trial, got, graph)
					}
					if got := positive; got != f.positive {
						t.Fatalf("n=%d trial %d: positive = %v, want %v", n, trial, got, f.positive)
					}
				}
			}
		})
	}
}
