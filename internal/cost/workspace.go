package cost

import (
	"repro/internal/markov"
	"repro/internal/mat"
)

// Workspace owns every buffer one evaluation/gradient pass needs: the
// Markov solver's π/Z/R storage, the Evaluation result slices, and the
// scratch of the Eq. 10 assembly. With a Workspace, a model's EvaluateIn
// and GradientIn perform zero allocations in steady state — the property
// the descent hot loop (dozens of evaluations per line search) depends
// on.
//
// A Workspace is not safe for concurrent use: the Evaluation and gradient
// returned by EvaluateIn/GradientIn alias its buffers and are overwritten
// by the next call. Give each goroutine its own Workspace (every
// evaluation state of a descent run holds its own, so concurrent
// restarts never share); Evaluation.Clone detaches a result that must
// survive longer.
type Workspace struct {
	n      int
	solver *markov.Solver
	ev     Evaluation

	// Gradient scratch, allocated on first GradientIn so evaluate-only
	// workspaces stay small.
	dUdPi []float64
	q     []float64 // Z·dUdPi
	carr  []float64 // coverage coefficients c_i = α_i G_i
	// Coverage state for the current gradient pass.
	anyCover bool
	cphi     float64 // Σ_i c_i Φ_i
	// beta is the exposure-weight vector the current gradient pass reads:
	// the model's own β on the standard path, a caller override on the
	// weighted path (the fleet layer masks β to the argmin sensor).
	beta []float64
	dUdP *mat.Matrix
	grad *mat.Matrix
}

// NewWorkspace returns a Workspace sized for the model's topology.
func (m *Model) NewWorkspace() *Workspace {
	n := m.top.M()
	return &Workspace{
		n:      n,
		solver: markov.NewSolver(n),
		ev: Evaluation{
			G:         make([]float64, n),
			CBar:      make([]float64, n),
			EBarI:     make([]float64, n),
			CoverTime: make([]float64, n),
		},
	}
}

// LineScans returns the number of the workspace's probes whose matrix
// fell outside its line's certified range and was scanned
// (markov.Solver.LineScans).
func (ws *Workspace) LineScans() int { return ws.solver.LineScans() }

// ensureGradient lazily allocates the gradient-side scratch.
func (ws *Workspace) ensureGradient() {
	if ws.grad != nil {
		return
	}
	n := ws.n
	ws.dUdPi = make([]float64, n)
	ws.q = make([]float64, n)
	ws.carr = make([]float64, n)
	ws.dUdP = mat.New(n, n)
	ws.grad = mat.New(n, n)
}

// EvaluateIn computes the full cost breakdown at p using the workspace's
// buffers. It runs only the chain solve's stationary stage: the
// returned Sol holds P and π, and forms Z on a Fundamental call. The
// returned Evaluation (including its Sol) aliases the workspace and is
// valid until the workspace's next use; Clone it to keep it longer.
// Results are bit-for-bit identical to Evaluate.
func (m *Model) EvaluateIn(ws *Workspace, p *mat.Matrix) (*Evaluation, error) {
	sol, err := ws.solver.SolveStationary(p)
	if err != nil {
		return nil, err
	}
	if err := m.evaluateInto(&ws.ev, sol); err != nil {
		return nil, err
	}
	return &ws.ev, nil
}

// GradientIn evaluates the cost at p and assembles the unprojected
// gradient [D_P U] of Eq. 10 using the workspace's buffers:
//
//	[D_P U]_kl = Σ_i π_k z_li ∂U/∂π_i
//	           + Σ_ij ∂U/∂z_ij (z_ik z_lj − π_k (Z²)_lj)
//	           + ∂U/∂p_kl.
//
// The partials ∂U/∂π, ∂U/∂Z, ∂U/∂P treat π, Z and P as independent
// variables; the chain rule through π(P) and Z(P) is supplied by
// Schweitzer's perturbation formulas, which the contractions above
// encode. With the exposure written in the closed form
// Ē_i = (1 − π_i)/(π_i (1 − p_ii)), no term of U reads Z, so ∂U/∂Z ≡ 0
// and the assembly reduces to π_k (Z·∂U/∂π)_l + ∂U/∂p_kl (DESIGN §5).
// Callers project the result with ProjectTo (Eq. 11) before stepping so
// the iterate stays row-stochastic. Both returned values alias the
// workspace and are valid until its next use.
func (m *Model) GradientIn(ws *Workspace, p *mat.Matrix) (*Evaluation, *mat.Matrix, error) {
	ev, err := m.EvaluateIn(ws, p)
	if err != nil {
		return nil, nil, err
	}
	g, err := m.gradientInto(ws, ev)
	if err != nil {
		return nil, nil, err
	}
	return ev, g, nil
}

// GradientWeightedSolvedIn assembles the Eq. 10 gradient from an
// evaluation the workspace already holds, with caller-supplied objective
// couplings. ev must be the value returned by this workspace's most
// recent EvaluateIn, ProbeIn or GradientIn, with no workspace use in
// between: the stationary re-solve is skipped, and Z is formed from the
// same solver. That is bit-for-bit what a re-solve would give, because
// EvaluateIn is deterministic. coverCoef replaces the coverage
// coefficients c_i = α_i G_i (with coverPhi = Σ_i c_i Φ̃_i for the
// caller's per-PoI targets Φ̃), and beta replaces the model's exposure
// weights. Either may be nil to keep the model's own term. The barrier,
// energy, and entropy partials are unchanged. The fleet layer uses this
// to assemble each sensor's slice of the stacked joint gradient: the
// coverage coupling c_i = α_i G_i^fleet with responsibility-scaled
// targets, and β masked to the PoIs whose min-over-sensors exposure this
// sensor owns.
func (m *Model) GradientWeightedSolvedIn(ws *Workspace, ev *Evaluation, coverCoef []float64, coverPhi float64, beta []float64) (*mat.Matrix, error) {
	return m.gradientIntoWith(ws, ev, coverCoef, coverPhi, beta)
}

// Clone returns a deep copy of the Evaluation, detached from any
// workspace buffers backing it.
func (ev *Evaluation) Clone() *Evaluation {
	out := &Evaluation{}
	ev.CopyTo(out)
	return out
}

// CopyTo overwrites dst with a deep copy of ev, reusing dst's slices and
// chain-solution buffers (see markov.Solution.CopyTo), so an optimizer
// that keeps its best evaluation in one destination allocates nothing
// per improvement. The copy's Sol carries Z only if ev's had formed it.
// dst must not be a workspace's own evaluation.
func (ev *Evaluation) CopyTo(dst *Evaluation) {
	g, cbar, ebar, cover, sol := dst.G, dst.CBar, dst.EBarI, dst.CoverTime, dst.Sol
	*dst = *ev
	dst.G = append(g[:0], ev.G...)
	dst.CBar = append(cbar[:0], ev.CBar...)
	dst.EBarI = append(ebar[:0], ev.EBarI...)
	dst.CoverTime = append(cover[:0], ev.CoverTime...)
	dst.Sol = nil
	if ev.Sol != nil {
		if sol == nil {
			sol = &markov.Solution{}
		}
		ev.Sol.CopyTo(sol)
		dst.Sol = sol
	}
}
