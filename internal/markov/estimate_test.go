package markov

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

func TestEstimateValidation(t *testing.T) {
	if _, err := Estimate([]int{0, 1}, 1, 0.1); err == nil {
		t.Error("m=1 should error")
	}
	if _, err := Estimate([]int{0}, 3, 0.1); err == nil {
		t.Error("single observation should error")
	}
	if _, err := Estimate([]int{0, 5}, 3, 0.1); err == nil {
		t.Error("out-of-range state should error")
	}
	if _, err := Estimate([]int{0, 1}, 3, -1); err == nil {
		t.Error("negative smoothing should error")
	}
}

func TestEstimateExactCounts(t *testing.T) {
	// 0→1, 1→0, 0→1: p̂_01 = 1, p̂_10 = 1 with zero smoothing.
	p, err := Estimate([]int{0, 1, 0, 1}, 2, 0)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if p.At(0, 1) != 1 || p.At(1, 0) != 1 {
		t.Errorf("estimate = %v", p)
	}
}

func TestEstimateSmoothingKeepsPositive(t *testing.T) {
	p, err := Estimate([]int{0, 1, 0, 1}, 3, 0.5)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if err := CheckStochastic(p); err != nil {
		t.Fatalf("not stochastic: %v", err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if p.At(i, j) <= 0 {
				t.Errorf("p[%d][%d] = %v", i, j, p.At(i, j))
			}
		}
	}
	// Unvisited state 2 gets the uniform row... with smoothing its row is
	// smoothed-uniform; either way it must be usable.
	c, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !NewSolver(c.M()).ergodic(c.p) {
		t.Error("smoothed estimate not ergodic")
	}
}

// TestEstimateRecoversTrueChain: estimating from a long trajectory of a
// known chain recovers its transition probabilities.
func TestEstimateRecoversTrueChain(t *testing.T) {
	truth, _ := mat.NewFromRows([][]float64{
		{0.2, 0.5, 0.3},
		{0.6, 0.1, 0.3},
		{0.25, 0.25, 0.5},
	})
	src := rng.New(1212)
	const steps = 400000
	states := make([]int, steps)
	cur := 0
	row := make([]float64, 3)
	for k := 0; k < steps; k++ {
		states[k] = cur
		for j := 0; j < 3; j++ {
			row[j] = truth.At(cur, j)
		}
		cur = src.Categorical(row)
	}
	est, err := Estimate(states, 3, 0.5)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if d := mat.MaxAbsDiff(est, truth); d > 0.01 {
		t.Errorf("estimate off by %v", d)
	}
	// And the estimated chain's stationary distribution matches.
	cTrue, _ := New(truth)
	sTrue, err := cTrue.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	cEst, _ := New(est)
	sEst, err := cEst.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := range sTrue.Pi {
		if math.Abs(sTrue.Pi[i]-sEst.Pi[i]) > 0.01 {
			t.Errorf("π_%d: true %v vs estimated %v", i, sTrue.Pi[i], sEst.Pi[i])
		}
	}
}

// TestEstimateSingleVisitWindow covers windows shorter than two visits to
// some states: each state appears at most once, so no state has more than
// one observed departure. The estimate must still be a strictly positive
// stochastic matrix under positive smoothing.
func TestEstimateSingleVisitWindow(t *testing.T) {
	p, err := Estimate([]int{0, 1, 2}, 4, 0.5)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	for i := 0; i < 4; i++ {
		var sum float64
		for j := 0; j < 4; j++ {
			v := p.At(i, j)
			if math.IsNaN(v) || v <= 0 {
				t.Fatalf("p[%d][%d] = %v, want strictly positive and finite", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	// State 3 was never seen; its row must be the uniform fallback.
	for j := 0; j < 4; j++ {
		if got := p.At(3, j); math.Abs(got-0.25) > 1e-12 {
			t.Errorf("unvisited row: p[3][%d] = %v, want 0.25", j, got)
		}
	}
}

// TestEstimateZeroSmoothingConfined pins the degenerate corner the drift
// detector must survive: zero smoothing on a trajectory confined to a
// subset of states. Rows with observed departures take their exact MLE,
// rows without any (unvisited states, or a state seen only as the final
// observation) fall back to uniform — and nothing is ever NaN.
func TestEstimateZeroSmoothingConfined(t *testing.T) {
	// State 1 appears only as the last observation (no departure counted);
	// state 2 never appears.
	p, err := Estimate([]int{0, 0, 0, 1}, 3, 0)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	for i := 0; i < 3; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			v := p.At(i, j)
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("p[%d][%d] = %v", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	// Row 0: two self-loops then one exit to 1 out of three departures.
	if got := p.At(0, 0); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("p[0][0] = %v, want 2/3", got)
	}
	if got := p.At(0, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("p[0][1] = %v, want 1/3", got)
	}
	third := 1.0 / 3
	for _, i := range []int{1, 2} {
		for j := 0; j < 3; j++ {
			if got := p.At(i, j); math.Abs(got-third) > 1e-12 {
				t.Errorf("departure-free row: p[%d][%d] = %v, want 1/3", i, j, got)
			}
		}
	}
}

// TestEstimateFeedsChainConstructor closes the loop with the consumer:
// a smoothed estimate from a confined window must be accepted by New and
// yield a finite stationary distribution (the ergodicity the drift
// detector and warm-start path rely on).
func TestEstimateFeedsChainConstructor(t *testing.T) {
	est, err := Estimate([]int{0, 0, 1, 0, 0, 1}, 3, 0.5)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	c, err := New(est)
	if err != nil {
		t.Fatalf("New rejected smoothed estimate: %v", err)
	}
	if !NewSolver(c.M()).ergodic(c.p) {
		t.Fatal("smoothed estimate is not ergodic")
	}
	sol, err := c.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	var sum float64
	for i, v := range sol.Pi {
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("pi[%d] = %v, want strictly positive", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stationary sums to %v", sum)
	}
}
