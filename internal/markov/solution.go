package markov

import (
	"errors"
	"math"
	"sync"

	"repro/internal/mat"
)

// Solution bundles the limiting quantities of an ergodic chain that the
// cost function and its gradient consume, in two stages. The stationary
// stage holds P and the stationary distribution π. The fundamental stage
// holds the matrix W whose rows all equal π, the fundamental matrix
// Z = (I - P + W)^{-1} (Eq. 7) and the mean first-passage matrix R
// (Eq. 8); Fundamental forms it, and Z2 forms Z² on top of it. Every
// formed quantity is treated as immutable until the owning Solver's next
// solve.
type Solution struct {
	// P is the transition matrix the solution was computed from.
	P *mat.Matrix
	// Pi is the stationary distribution π.
	Pi []float64
	// W has every row equal to Pi (Eq. 5 context). Nil until the
	// fundamental stage is formed, like Z and R.
	W *mat.Matrix
	// Z is the fundamental matrix (I - P + W)^{-1} (Eq. 7).
	Z *mat.Matrix
	// R is the mean first-passage time matrix: R_ij is the expected number
	// of transitions to first reach j starting from i, with
	// R_ii = 1/π_i the mean return time (Eq. 8 with the column-scaling
	// reading of R = (I - Z + J Z_dg) D; see DESIGN.md errata).
	R *mat.Matrix

	// w, z and r are the storage W, Z and R point at once formed. A
	// Solver keeps them across solves, and so does a CopyTo destination.
	w, z, r *mat.Matrix
	// solver is the Solver whose current solution this is, the one the
	// fundamental stage is formed from; nil after Clone and CopyTo.
	solver   *Solver
	fundOnce sync.Once
	fundErr  error

	// z2 holds Z·Z once z2Once has run. A Solver keeps the buffer across
	// solves and re-arms z2Once on each one.
	z2     *mat.Matrix
	z2Once sync.Once
}

// ErrNoFundamental is returned by Fundamental for a copied Solution whose
// source never formed its fundamental stage: the copy has no solver to
// form W, Z and R from.
var ErrNoFundamental = errors.New("markov: fundamental stage not formed before the solution was copied")

// Fundamental forms the fundamental stage — W, Z and R — on its first
// call after the stationary stage, from the Solver that produced the
// solution, and reports whether it could. Later calls return the first
// call's result, and concurrent first calls are safe. Solve forms the
// stage itself; only a SolveStationary result needs this call.
func (s *Solution) Fundamental() error {
	s.fundOnce.Do(s.formFundamental)
	return s.fundErr
}

// formFundamental runs the owning Solver's fundamental stage and, on
// success, exposes its buffers as W, Z and R.
func (s *Solution) formFundamental() {
	if s.solver == nil {
		s.fundErr = ErrNoFundamental
		return
	}
	if s.fundErr = s.solver.fundamental(); s.fundErr == nil {
		s.adopt()
	}
}

// adopt exposes the formed storage as W, Z and R.
func (s *Solution) adopt() { s.W, s.Z, s.R = s.w, s.z, s.r }

// unform re-arms both lazy stages: W, Z, R and Z² read as nil until they
// are formed again, so no stale matrix of an earlier chain shows through.
// The storage is kept.
func (s *Solution) unform() {
	s.W, s.Z, s.R = nil, nil, nil
	s.fundOnce = sync.Once{}
	s.fundErr = nil
	s.z2Once = sync.Once{}
}

// Z2 returns Z·Z, the square the perturbation formula for dZ/dt needs.
// Solve does not form it: the product is computed on the first call,
// after forming the fundamental stage if need be, and kept until the
// owning Solver's next solve. Every call site gets the bits of one
// mat.MulTo of Z by itself, and concurrent first calls are safe. The
// returned matrix aliases the Solution; treat it as read-only. It is nil
// when the fundamental stage cannot be formed.
func (s *Solution) Z2() *mat.Matrix {
	s.z2Once.Do(s.formZ2)
	return s.z2
}

// formZ2 computes Z·Z into the Solution's z2 buffer, allocating it on
// first use.
func (s *Solution) formZ2() {
	if s.Fundamental() != nil {
		s.z2 = nil
		return
	}
	n := s.Z.Rows()
	if s.z2 == nil {
		s.z2 = mat.New(n, n)
	}
	// Both operands are n×n by construction, so MulTo cannot fail.
	_ = mat.MulTo(s.z2, s.Z, s.Z)
}

// Solve computes the stationary distribution and the derived matrices.
// It returns ErrNotErgodic for chains without a unique positive stationary
// distribution (checked structurally before any linear algebra).
//
// Each call allocates a fresh result, with Z² already formed. Hot loops
// that solve many same-sized chains should hold a Solver and call its
// Solve instead, which reuses one set of buffers across calls and leaves
// Z² to the first Z2 call.
func (c *Chain) Solve() (*Solution, error) {
	sol, err := NewSolver(c.M()).Solve(c.p)
	if err != nil {
		return nil, err
	}
	sol.Z2()
	return sol, nil
}

// StationaryPower estimates the stationary distribution by power
// iteration, used in tests to cross-validate the direct solve. It returns
// the distribution after either maxIter iterations or successive iterates
// differ by less than tol in max norm.
func (c *Chain) StationaryPower(maxIter int, tol float64) ([]float64, error) {
	n := c.M()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		next, err := c.Step(dist)
		if err != nil {
			return nil, err
		}
		var diff float64
		for i := range next {
			if d := math.Abs(next[i] - dist[i]); d > diff {
				diff = d
			}
		}
		dist = next
		if diff < tol {
			break
		}
	}
	return dist, nil
}

// GroupInverse returns Meyer's group generalized inverse A# of A = I - P,
// via A# = Z - W (equivalent to the paper's Z = I + P·A#, Eq. 7 context).
func (s *Solution) GroupInverse() (*mat.Matrix, error) {
	if err := s.Fundamental(); err != nil {
		return nil, err
	}
	return mat.SubM(s.Z, s.W)
}

// EntropyRate returns the chain's entropy rate
// H = -Σ_i π_i Σ_j p_ij ln p_ij (§VII), in nats. Zero-probability
// transitions contribute zero.
func (s *Solution) EntropyRate() float64 {
	n := len(s.Pi)
	pd := s.P.Data()
	var h float64
	for i := 0; i < n; i++ {
		pii := s.Pi[i]
		row := pd[i*n : (i+1)*n]
		for _, p := range row {
			if p > 0 {
				h -= pii * p * math.Log(p)
			}
		}
	}
	return h
}

// KemenyConstant returns K = Σ_{j≠i} π_j R_ij, which is independent of the
// starting state i and equals trace(Z) - 1. It is NaN when the
// fundamental stage cannot be formed.
func (s *Solution) KemenyConstant() float64 {
	if s.Fundamental() != nil {
		return math.NaN()
	}
	var tr float64
	for i := 0; i < len(s.Pi); i++ {
		tr += s.Z.At(i, i)
	}
	return tr - 1
}

// ConditionNumber returns the Funderlic–Meyer condition number of the
// stationary distribution: κ = max_{i,j} |a#_ij| where A# is the group
// inverse of I − P. It bounds the stationary distribution's sensitivity
// to perturbations of the transition matrix:
//
//	max_i |π̃_i − π_i| ≤ κ · ‖P̃ − P‖_∞
//
// for any ergodic P̃ (Funderlic & Meyer 1986). Schedules with small κ are
// robust to estimation error in the transition probabilities they are
// deployed with.
func (s *Solution) ConditionNumber() (float64, error) {
	aSharp, err := s.GroupInverse()
	if err != nil {
		return 0, err
	}
	return mat.MaxAbs(aSharp), nil
}
