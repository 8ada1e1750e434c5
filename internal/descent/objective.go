package descent

import (
	"repro/internal/cost"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/par"
)

// Objective is a cost over a stack of K row-stochastic M×M matrices, the
// space one descent run searches. cost.Model is the K = 1 objective (see
// New) and fleet.Model the joint objective of K ≥ 1 sensors. An
// Objective is immutable; everything an evaluation writes lives in one
// of its States, so concurrent runs can share it.
type Objective[S any] interface {
	// Shape returns the stack size K and the chain order M.
	Shape() (k, m int)
	// NewState returns a private evaluation state whose chain solves use
	// the given backend. A non-nil pool row-partitions its gradient
	// assembly; the state does not own the pool.
	NewState(solver markov.Method, pool *par.Pool) S
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
	// Line builds lines[s], sensor s's search line through the last
	// evaluation along the zero-row-sum direction dir[s], forming the
	// evaluation's fundamental matrices if Gradient has not.
	Line(lines []*markov.Line, dir []*mat.Matrix) error
	// Probe evaluates the stack ps, each ps[s] the point at δ on
	// lines[s], which becomes the state's last evaluation, and returns
	// its penalized cost U. It only reads the lines.
	Probe(lines []*markov.Line, ps []*mat.Matrix, delta float64) (float64, error)
	// CopyTo copies the last evaluation into dst, reusing its buffers;
	// Clone copies it into a fresh one.
	CopyTo(dst E)
	Clone() E
}

// single is a cost.Model as the K = 1 objective.
type single struct{ model *cost.Model }

func (o single) Shape() (int, int) { return 1, o.model.Topology().M() }

func (o single) NewState(solver markov.Method, pool *par.Pool) *singleState {
	ws := o.model.NewWorkspace()
	ws.SetSolver(solver)
	ws.SetPool(pool)
	return &singleState{model: o.model, ws: ws}
}

// singleState evaluates one matrix in one cost.Workspace. The gradient
// reuses the workspace's Markov solution of the last evaluation instead
// of re-solving the chain.
type singleState struct {
	model *cost.Model
	ws    *cost.Workspace
	ev    *cost.Evaluation // the workspace's last evaluation
}

func (s *singleState) Evaluate(ps []*mat.Matrix) (float64, error) {
	ev, err := s.model.EvaluateIn(s.ws, ps[0])
	if err != nil {
		return 0, err
	}
	s.ev = ev
	return ev.U, nil
}

func (s *singleState) Metrics() (float64, float64, float64) {
	return s.ev.Objective, s.ev.DeltaC, s.ev.EBar
}

func (s *singleState) Gradient(dst []*mat.Matrix) error {
	g, err := s.model.GradientSolvedIn(s.ws, s.ev)
	if err != nil {
		return err
	}
	return dst[0].CopyFrom(g)
}

func (s *singleState) Line(lines []*markov.Line, dir []*mat.Matrix) error {
	return lines[0].Reset(s.ev.Sol, dir[0])
}

func (s *singleState) Probe(lines []*markov.Line, ps []*mat.Matrix, delta float64) (float64, error) {
	ev, err := s.model.ProbeIn(s.ws, lines[0], ps[0], delta)
	if err != nil {
		return 0, err
	}
	s.ev = ev
	return ev.U, nil
}

func (s *singleState) CopyTo(dst *cost.Evaluation) { s.ev.CopyTo(dst) }

func (s *singleState) Clone() *cost.Evaluation { return s.ev.Clone() }
