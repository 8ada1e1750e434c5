package descent

import (
	"repro/internal/mat"
)

// Objective is a cost over a stack of K row-stochastic M×M matrices, the
// space one descent run searches. fleet.Model is the joint objective of
// K ≥ 1 sensors; a single sensor's cost (Eq. 9) is its K = 1 case. An
// Objective is immutable; everything an evaluation writes lives in one
// of its States, so concurrent runs can share it.
type Objective[S any] interface {
	// Shape returns the stack size K and the chain order M.
	Shape() (k, m int)
	// NewState returns a private evaluation state.
	NewState() S
}

// State is one private evaluation workspace of an Objective; E is the
// evaluation breakdown a Result keeps. A State is not safe for
// concurrent use.
type State[E any] interface {
	// Evaluate evaluates the stack ps, which becomes the state's last
	// evaluation, and returns its penalized cost U.
	Evaluate(ps []*mat.Matrix) (float64, error)
	// Metrics returns the unpenalized cost, ΔC and Ē of the last
	// evaluation.
	Metrics() (objective, deltaC, eBar float64)
	// Gradient writes the unprojected gradient blocks ∂U/∂P^(s) at the
	// last evaluation into dst, one block per sensor.
	Gradient(dst []*mat.Matrix) error
	// Line builds the state's search lines, sensor s's through the last
	// evaluation along the zero-row-sum direction dir[s], forming the
	// evaluation's fundamental matrices if Gradient has not. They replace
	// the lines of any earlier search.
	Line(dir []*mat.Matrix) error
	// Probe evaluates the stack at δ on the search lines, sensor s's
	// point P^(s) + δ·dir[s] formed by its line, which becomes the
	// state's last evaluation, and returns its penalized cost U. The
	// lines stay as Line built them.
	Probe(delta float64) (float64, error)
	// CopyTo copies the last evaluation into dst, reusing its buffers;
	// Clone copies it into a fresh one.
	CopyTo(dst E)
	Clone() E
}
