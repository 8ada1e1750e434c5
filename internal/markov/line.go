package markov

import (
	"errors"
	"fmt"

	"repro/internal/mat"
)

// ErrDirection indicates a line whose order does not match the chain,
// direction or solver it is used with.
var ErrDirection = errors.New("markov: invalid line direction")

// Line is the stationary distribution along a search line P + δ·D, for
// a direction D with zero row sums, as a function of δ.
//
// Schweitzer's perturbation identity gives it in closed form from the
// base point's π and fundamental matrix Z: because D·1 = 0, Z·1 = 1 and
// π·Z = π, the chain P + δD has
//
//	π(δ) = π·(I − δ·B)⁻¹,  B = D·Z,
//
// whenever P + δD is ergodic (DESIGN §5). Reset reduces B to Hessenberg
// form H = QᵀBQ once, in O(M³), and keeps c = π·Q; every δ after that
// is one O(M²) shifted Hessenberg solve u·(I − δH) = c and π(δ) = u·Qᵀ.
// The line search probes a few dozen δ along one direction, so this
// replaces a factorization per probe by one reduction per search.
//
// After Reset a Line is read-only: any number of Solvers may solve
// against it concurrently.
type Line struct {
	n int
	h *mat.Hessenberg
	b *mat.Matrix // B = D·Z, the reduction's input
	c []float64   // π·Q
}

// NewLine returns a Line for n-state chains with all buffers
// preallocated.
func NewLine(n int) *Line {
	return &Line{
		n: n,
		h: mat.NewHessenberg(n),
		b: mat.New(n, n),
		c: make([]float64, n),
	}
}

// Reset builds the line through sol's chain along d. It forms sol's
// fundamental stage if that has not happened yet, so sol must still be
// its Solver's current solution or carry a formed Z. The identity needs
// d to have zero row sums; Reset does not check that, because every
// probe checks that its P + δ·d is stochastic (SolveLine). It performs
// no allocations on the success path.
func (l *Line) Reset(sol *Solution, d *mat.Matrix) error {
	n := l.n
	if len(sol.Pi) != n || d.Rows() != n || d.Cols() != n {
		return fmt.Errorf("%w: line of order %d through a %d-state chain along %dx%d",
			ErrDirection, n, len(sol.Pi), d.Rows(), d.Cols())
	}
	if err := sol.Fundamental(); err != nil {
		return err
	}
	if err := mat.MulTo(l.b, d, sol.Z); err != nil {
		return err
	}
	if err := l.h.Reduce(l.b); err != nil {
		return err
	}
	copy(l.c, sol.Pi)
	l.h.ApplyQ(l.c)
	return nil
}

// stationaryAt writes π(δ) into pi using the caller's scratch. A shift
// whose system is numerically singular returns mat.ErrSingular.
func (l *Line) stationaryAt(pi []float64, delta float64, ws *mat.ShiftedScratch) error {
	if err := l.h.ShiftedSolveTo(pi, l.c, delta, ws); err != nil {
		return err
	}
	l.h.ApplyQT(pi)
	return nil
}

// SolveLine runs the stationary stage for p = P + δ·D, a point on the
// line l, taking π from the line instead of a factorization. It keeps
// every check of SolveStationary — p's shape and stochasticity, the
// ergodicity test, and a positive π — so a probe fails exactly where a
// direct solve of p fails, except that a shift the line's Hessenberg
// solve finds singular reports ErrNotErgodic the way a singular
// stationary system does. p must be the matrix the line's base point
// and direction give at δ; the solver cannot check that, and π is that
// point's only up to rounding (DESIGN §8.2).
//
// The returned Solution reports MethodDense: its Fundamental forms W, Z
// and R from p through the dense branch whatever the Solver's backend.
// No allocations occur on the success path after the first call.
func (s *Solver) SolveLine(l *Line, p *mat.Matrix, delta float64) (*Solution, error) {
	if l.n != s.n {
		return nil, fmt.Errorf("%w: line of order %d for a %d-state solver", ErrDirection, l.n, s.n)
	}
	if err := s.begin(p); err != nil {
		return nil, err
	}
	if s.lineWs == nil {
		s.lineWs = mat.NewShiftedScratch(s.n)
	}
	s.sol.method = MethodDense
	if err := l.stationaryAt(s.sol.Pi, delta, s.lineWs); err != nil {
		if errors.Is(err, mat.ErrSingular) {
			return nil, fmt.Errorf("%w: stationary system singular on the search line", ErrNotErgodic)
		}
		return nil, err
	}
	if err := checkPositive(s.sol.Pi); err != nil {
		return nil, err
	}
	if err := s.sol.P.CopyFrom(p); err != nil {
		return nil, err
	}
	return &s.sol, nil
}
