package markov

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

func TestMomentsMeanMatchesR(t *testing.T) {
	src := rng.New(333)
	for trial := 0; trial < 30; trial++ {
		c := randomErgodic(src, 2+src.IntN(6))
		s, err := c.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		m, err := s.Moments()
		if err != nil {
			t.Fatalf("Moments: %v", err)
		}
		// The first-step-analysis means must agree with the closed-form
		// R of Eq. 8 — two entirely different derivations.
		if d := mat.MaxAbsDiff(m.Mean, s.R); d > 1e-7 {
			t.Fatalf("trial %d: mean vs R diff %v", trial, d)
		}
	}
}

func TestMomentsTwoStateAnalytic(t *testing.T) {
	// From state 0, T_1 is geometric(a): E = 1/a, E[T²] = (2-a)/a².
	a, b := 0.3, 0.1
	c := twoState(t, a, b)
	s, err := c.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	m, err := s.Moments()
	if err != nil {
		t.Fatalf("Moments: %v", err)
	}
	if got, want := m.Second.At(0, 1), (2-a)/(a*a); math.Abs(got-want) > 1e-9 {
		t.Errorf("E[T²]_01 = %v, want %v", got, want)
	}
	if got, want := m.Second.At(1, 0), (2-b)/(b*b); math.Abs(got-want) > 1e-9 {
		t.Errorf("E[T²]_10 = %v, want %v", got, want)
	}
	// Geometric variance (1-a)/a².
	mu := m.Mean.At(0, 1)
	if got, want := m.Second.At(0, 1)-mu*mu, (1-a)/(a*a); math.Abs(got-want) > 1e-9 {
		t.Errorf("Var_01 = %v, want %v", got, want)
	}
}

func TestMomentsVarianceNonNegative(t *testing.T) {
	src := rng.New(334)
	for trial := 0; trial < 30; trial++ {
		c := randomErgodic(src, 2+src.IntN(6))
		s, err := c.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		m, err := s.Moments()
		if err != nil {
			t.Fatalf("Moments: %v", err)
		}
		n := m.Mean.Rows()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				// Var = E[T²] − E[T]² ≥ 0: the second moment dominates
				// the squared mean (Jensen).
				if m.Second.At(i, j) < m.Mean.At(i, j)*m.Mean.At(i, j)-1e-9 {
					t.Fatalf("trial %d: E[T²] < E[T]² at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

// TestMomentsAgainstSimulation validates the second moments by Monte
// Carlo: simulate first-passage times on a small chain and compare the
// empirical second moment.
func TestMomentsAgainstSimulation(t *testing.T) {
	p, _ := mat.NewFromRows([][]float64{
		{0.2, 0.5, 0.3},
		{0.3, 0.4, 0.3},
		{0.25, 0.25, 0.5},
	})
	c, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s, err := c.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	m, err := s.Moments()
	if err != nil {
		t.Fatalf("Moments: %v", err)
	}
	src := rng.New(999)
	row := make([]float64, 3)
	samplePassage := func(from, to int) float64 {
		cur := from
		steps := 0.0
		for {
			for j := 0; j < 3; j++ {
				row[j] = p.At(cur, j)
			}
			cur = src.Categorical(row)
			steps++
			if cur == to {
				return steps
			}
		}
	}
	const trials = 300000
	for _, pair := range [][2]int{{0, 2}, {1, 0}, {2, 2}} {
		var sum, sumSq float64
		for k := 0; k < trials; k++ {
			v := samplePassage(pair[0], pair[1])
			sum += v
			sumSq += v * v
		}
		meanEmp := sum / trials
		secondEmp := sumSq / trials
		if rel := math.Abs(meanEmp-m.Mean.At(pair[0], pair[1])) / m.Mean.At(pair[0], pair[1]); rel > 0.02 {
			t.Errorf("pair %v: empirical mean %v vs analytic %v", pair, meanEmp, m.Mean.At(pair[0], pair[1]))
		}
		if rel := math.Abs(secondEmp-m.Second.At(pair[0], pair[1])) / m.Second.At(pair[0], pair[1]); rel > 0.03 {
			t.Errorf("pair %v: empirical E[T²] %v vs analytic %v", pair, secondEmp, m.Second.At(pair[0], pair[1]))
		}
	}
}
