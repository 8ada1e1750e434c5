package markov

import (
	"fmt"

	"repro/internal/mat"
)

// FirstPassageMoments holds the first two moments of the first-passage
// times of an ergodic chain: Mean[i][j] is E[T_j | X_0 = i] (equal to the
// solution's R) and Second[i][j] is E[T_j² | X_0 = i]; the variance is
// Second − Mean². The diagonal entries are the return-time moments.
//
// The paper's exposure objective uses only the mean (Eq. 3); the second
// moment enables variance-aware scheduling — bounding not just the
// average but the variability of how long a PoI stays unwatched — which
// this implementation exposes as an analysis tool.
type FirstPassageMoments struct {
	Mean   *mat.Matrix
	Second *mat.Matrix
}

// Moments computes the first and second moments of all first-passage
// times by first-step analysis: for a fixed target j, with Q the
// transition matrix restricted to the non-target states,
//
//	m = (I − Q)^{-1}·1,          (means)
//	s = (I − Q)^{-1}·(1 + 2·Q·m) (second moments)
//
// and the diagonal (return-time) moments follow by one more step from j.
// The mean matrix reproduces the closed-form R of Eq. 8, which the tests
// assert.
func (s *Solution) Moments() (*FirstPassageMoments, error) {
	n := len(s.Pi)
	mean := mat.New(n, n)
	second := mat.New(n, n)

	for j := 0; j < n; j++ {
		// Build I − Q over the states ≠ j.
		idx := make([]int, 0, n-1)
		for i := 0; i < n; i++ {
			if i != j {
				idx = append(idx, i)
			}
		}
		a := mat.New(n-1, n-1)
		for r, i := range idx {
			for c, k := range idx {
				v := -s.P.At(i, k)
				if i == k {
					v++
				}
				a.Set(r, c, v)
			}
		}
		f, err := mat.Factor(a)
		if err != nil {
			return nil, fmt.Errorf("markov: moments target %d: %w", j, err)
		}
		ones := make([]float64, n-1)
		for i := range ones {
			ones[i] = 1
		}
		m, err := f.SolveVec(ones)
		if err != nil {
			return nil, err
		}
		// rhs2 = 1 + 2·Q·m.
		rhs2 := make([]float64, n-1)
		for r, i := range idx {
			acc := 1.0
			for c, k := range idx {
				acc += 2 * s.P.At(i, k) * m[c]
			}
			rhs2[r] = acc
		}
		s2, err := f.SolveVec(rhs2)
		if err != nil {
			return nil, err
		}
		for r, i := range idx {
			mean.Set(i, j, m[r])
			second.Set(i, j, s2[r])
		}
		// Return-time moments from j: T_jj = 1 + T'_j where T' starts
		// from the first-step distribution.
		var mRet, sRet float64
		mRet = 1
		sRet = 1
		for c, k := range idx {
			mRet += s.P.At(j, k) * m[c]
			sRet += s.P.At(j, k) * (2*m[c] + s2[c])
		}
		mean.Set(j, j, mRet)
		second.Set(j, j, sRet)
	}
	return &FirstPassageMoments{Mean: mean, Second: second}, nil
}
