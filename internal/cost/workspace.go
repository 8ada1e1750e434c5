package cost

import (
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/par"
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
// by the next call. Give each goroutine its own Workspace (descent gives
// one to every Optimizer, so RunManyParallel workers never share);
// Evaluation.Clone detaches a result that must survive longer.
type Workspace struct {
	n        int
	solver   *markov.Solver
	ev       Evaluation
	coverNum []float64

	// pool, when set, row-partitions the gradient's partial-derivative
	// phase across its workers. Results are bit-for-bit identical with
	// any pool width, including none.
	pool *par.Pool

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
	beta  []float64
	dUdP  *mat.Matrix
	grad  *mat.Matrix
	gtask gradTask
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
		coverNum: make([]float64, n),
	}
}

// SetPool attaches a worker pool for the gradient assembly. A nil pool
// (the default) keeps the whole pass on the calling goroutine. The
// workspace does not own the pool; the caller stops it.
func (ws *Workspace) SetPool(p *par.Pool) {
	ws.pool = p
}

// SetSolver selects the markov backend for the workspace's chain solves.
// markov.MethodDense (the default) is the bit-exact reference;
// markov.MethodSparse trades bit-identity for factor-fill scaling at
// city-size M, agreeing with the dense results to markov.SparseTol (and
// transparently falling back to dense on near-singular systems).
func (ws *Workspace) SetSolver(method markov.Method) {
	ws.solver.SetMethod(method)
}

// Solver returns the workspace's current markov backend.
func (ws *Workspace) Solver() markov.Method { return ws.solver.Method() }

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
	if err := m.evaluateInto(&ws.ev, ws.coverNum, sol, false); err != nil {
		return nil, err
	}
	return &ws.ev, nil
}

// ProbeIn evaluates a line-search probe: the cost at p = P + δ·D, where
// line runs through P along D (markov.Line). π comes from the line's
// O(M²) shifted solve instead of a factorization of p, and the energy and
// entropy rate are computed only when their weights are nonzero;
// otherwise the fold is EvaluateIn's. U agrees with EvaluateIn at p to
// rounding, not bit for bit (DESIGN §8.2). The returned Evaluation
// aliases the workspace like EvaluateIn's; its Sol forms Z through the
// dense branch on request. line is only read, so workspaces may probe
// one line concurrently.
func (m *Model) ProbeIn(ws *Workspace, line *markov.Line, p *mat.Matrix, delta float64) (*Evaluation, error) {
	sol, err := ws.solver.SolveLine(line, p, delta)
	if err != nil {
		return nil, err
	}
	if err := m.evaluateInto(&ws.ev, ws.coverNum, sol, true); err != nil {
		return nil, err
	}
	return &ws.ev, nil
}

// GradientIn evaluates the cost and assembles the unprojected Eq. 10
// gradient using the workspace's buffers. Both returned values alias the
// workspace and are valid until its next use. Results are bit-for-bit
// identical to Gradient.
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

// GradientSolvedIn assembles the Eq. 10 gradient from an evaluation the
// workspace already holds: ev must be the value returned by this
// workspace's most recent EvaluateIn (or GradientIn), with no workspace
// use in between. It skips the stationary re-solve that GradientIn
// would repeat — the descent loops use it to reuse the accepted
// line-search probe's solution for the next iteration's gradient, whose
// Z it then forms from the same solver. The result is bit-for-bit
// identical to calling GradientIn at the same matrix, because EvaluateIn
// is deterministic: re-solving would rebuild exactly the doubles ev
// already holds.
func (m *Model) GradientSolvedIn(ws *Workspace, ev *Evaluation) (*mat.Matrix, error) {
	return m.gradientInto(ws, ev)
}

// GradientWeightedSolvedIn is GradientSolvedIn with caller-supplied
// objective couplings: coverCoef replaces the coverage coefficients
// c_i = α_i G_i (with coverPhi = Σ_i c_i Φ̃_i for the caller's per-PoI
// targets Φ̃), and beta replaces the model's exposure weights. Either may
// be nil to keep the model's own term. The barrier, energy, and entropy
// partials are unchanged. The fleet layer uses this to assemble each
// sensor's slice of the stacked joint gradient: the coverage coupling
// c_i = α_i G_i^fleet with responsibility-scaled targets, and β masked to
// the PoIs whose min-over-sensors exposure this sensor owns. Like
// GradientSolvedIn, ev must be this workspace's most recent evaluation.
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
