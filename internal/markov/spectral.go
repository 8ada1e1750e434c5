package markov

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// SLEM estimates the second-largest eigenvalue modulus of the transition
// matrix — the quantity governing the chain's geometric convergence rate
// to stationarity. It runs power iteration on the deflated matrix
// B = P − W (whose spectrum is P's with the unit eigenvalue removed),
// estimating |λ₂| from the norm growth rate so that complex conjugate
// pairs, which make the iterate direction oscillate, still yield a
// convergent estimate.
func (s *Solution) SLEM(maxIter int, tol float64) (float64, error) {
	if maxIter <= 0 {
		return 0, fmt.Errorf("markov: SLEM maxIter %d", maxIter)
	}
	if err := s.Fundamental(); err != nil {
		return 0, err
	}
	n := len(s.Pi)
	b, err := mat.SubM(s.P, s.W)
	if err != nil {
		return 0, err
	}
	// Deterministic pseudo-random start avoids pathological alignment
	// with an eigenvector's null component.
	src := rng.New(0x5eed)
	x := make([]float64, n)
	for i := range x {
		x[i] = src.Norm(0, 1)
	}
	normalize := func(v []float64) float64 {
		nv := mat.NormVec2(v)
		if nv == 0 {
			return 0
		}
		for i := range v {
			v[i] /= nv
		}
		return nv
	}
	normalize(x)

	// Average the per-step growth over a window to smooth complex-pair
	// oscillation.
	const window = 8
	var growths []float64
	est := 0.0
	for iter := 0; iter < maxIter; iter++ {
		next, err := mat.MulVec(b, x)
		if err != nil {
			return 0, err
		}
		g := normalize(next)
		if g == 0 {
			// x landed in the kernel: the remaining spectrum is zero.
			return 0, nil
		}
		x = next
		growths = append(growths, g)
		if len(growths) >= window {
			var mean float64
			for _, v := range growths[len(growths)-window:] {
				mean += v
			}
			mean /= window
			if math.Abs(mean-est) < tol {
				return mean, nil
			}
			est = mean
		}
	}
	return est, nil
}

// SpectralGap returns 1 − SLEM, the chain's spectral gap.
func (s *Solution) SpectralGap(maxIter int, tol float64) (float64, error) {
	slem, err := s.SLEM(maxIter, tol)
	if err != nil {
		return 0, err
	}
	return 1 - slem, nil
}

// TVDistance returns the total variation distance ½·Σ|p_i − q_i| between
// two distributions of equal length.
func TVDistance(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("%w: TV of %d and %d entries", mat.ErrDimension, len(p), len(q))
	}
	var s float64
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s / 2, nil
}

// MixingTime returns the exact ε-mixing time of the chain: the smallest t
// such that max_i TV(δ_i P^t, π) ≤ eps, computed by iterating the t-step
// distributions from every start. It returns maxSteps+1 when the chain
// has not mixed within the budget.
func (c *Chain) MixingTime(sol *Solution, eps float64, maxSteps int) (int, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("markov: mixing eps %v outside (0,1)", eps)
	}
	if maxSteps <= 0 {
		return 0, fmt.Errorf("markov: mixing maxSteps %d", maxSteps)
	}
	n := c.M()
	// rows[i] is the distribution after t steps starting at i.
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		rows[i][i] = 1
	}
	for t := 1; t <= maxSteps; t++ {
		worst := 0.0
		for i := range rows {
			next, err := c.Step(rows[i])
			if err != nil {
				return 0, err
			}
			rows[i] = next
			tv, err := TVDistance(next, sol.Pi)
			if err != nil {
				return 0, err
			}
			if tv > worst {
				worst = tv
			}
		}
		if worst <= eps {
			return t, nil
		}
	}
	return maxSteps + 1, nil
}
