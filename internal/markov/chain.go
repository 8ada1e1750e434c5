// Package markov implements the finite Markov chain machinery the paper's
// optimizer is built on: stochastic-matrix validation, ergodicity checks,
// stationary distributions, the fundamental matrix Z = (I - P + W)^{-1}
// (Eq. 7), Meyer's group generalized inverse of I - P, mean first-passage
// times (Eq. 8), the chain's entropy rate (§VII), and π along a search
// line P + δD by Schweitzer's perturbation identity (the line search of
// the paper's V3).
package markov

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// Validation errors.
var (
	// ErrNotStochastic indicates the matrix is not row-stochastic.
	ErrNotStochastic = errors.New("markov: matrix is not row-stochastic")
	// ErrNotErgodic indicates the chain is reducible or periodic, so the
	// limiting quantities the paper relies on do not exist.
	ErrNotErgodic = errors.New("markov: chain is not ergodic")
)

// StochasticTol is the tolerance used when validating row sums.
const StochasticTol = 1e-9

// edgeTol is the threshold above which a transition probability counts as
// a graph edge for irreducibility/periodicity purposes.
const edgeTol = 0.0

// Chain is a finite, time-homogeneous Markov chain defined by a
// row-stochastic transition matrix.
type Chain struct {
	p *mat.Matrix
}

// New validates that p is square and row-stochastic and wraps it in a
// Chain. The matrix is cloned, so later mutation of p does not affect the
// chain.
func New(p *mat.Matrix) (*Chain, error) {
	if err := CheckStochastic(p); err != nil {
		return nil, err
	}
	return &Chain{p: p.Clone()}, nil
}

// CheckStochastic verifies that p is square, entries lie in [0, 1], and
// every row sums to 1 within StochasticTol.
func CheckStochastic(p *mat.Matrix) error {
	_, err := scanStochastic(p)
	return err
}

// rowSumTol is the distance from 1 that CheckStochastic allows a row's
// computed sum.
const rowSumTol = 1e-6

// scanStochastic is CheckStochastic's one pass over p: it returns the
// first violation in row-major order (an entry before its row's sum)
// and, when there is none, whether every entry is a graph edge
// (> edgeTol), which makes the chain ergodic (Solver.ergodic).
func scanStochastic(p *mat.Matrix) (positive bool, err error) {
	if !p.IsSquare() {
		return false, fmt.Errorf("%w: shape %dx%d", ErrNotStochastic, p.Rows(), p.Cols())
	}
	n := p.Rows()
	pd := p.Data()
	positive = true
	for i := 0; i < n; i++ {
		row := pd[i*n : (i+1)*n]
		var sum float64
		for j, v := range row {
			if !(v >= -StochasticTol && v <= 1+StochasticTol) {
				return false, fmt.Errorf("%w: p[%d][%d] = %v", ErrNotStochastic, i, j, v)
			}
			positive = positive && v > edgeTol
			sum += v
		}
		if math.Abs(sum-1) > rowSumTol {
			return false, fmt.Errorf("%w: row %d sums to %v", ErrNotStochastic, i, sum)
		}
	}
	return positive, nil
}

// M returns the number of states.
func (c *Chain) M() int { return c.p.Rows() }

// At returns p_ij.
func (c *Chain) At(i, j int) float64 { return c.p.At(i, j) }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Step returns the distribution after one step from the given distribution:
// out = dist * P.
func (c *Chain) Step(dist []float64) ([]float64, error) {
	return mat.VecMul(dist, c.p)
}
