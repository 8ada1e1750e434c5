// Package descent implements the paper's steepest-descent search over the
// space of all Markov transition matrices (Sections IV–V), in the three
// configurations evaluated in §VI:
//
//   - Basic (V1): uniform initialization p_ij = 1/M and a fixed step Δt.
//   - Adaptive (V2+V3): random initialization and an optimal step chosen
//     each iteration by a conservative trisection line search bounded by
//     the box constraints 0 ≤ p_ij ≤ 1; a zero optimal step flags a local
//     optimum and terminates the search.
//   - Perturbed (V2+V3+V4): the adaptive algorithm with mean-zero Gaussian
//     noise added to [D_P U] and a simulated-annealing acceptance rule
//     (Hajek logarithmic cooling, T(n) = k / log(n+1)) that lets the
//     search escape the numerous local optima of the solution space.
//
// Every step direction is the negated projection (Eq. 11) of the gradient
// [D_P U] (Eq. 10), so iterates keep exact unit row sums; a configurable
// probability floor keeps them strictly inside the polytope, matching the
// role of the paper's barrier penalty.
package descent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/cost"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
)

// Optimizer configuration errors.
var (
	// ErrOptions indicates an invalid Options configuration.
	ErrOptions = errors.New("descent: invalid options")
)

// Variant selects the algorithm configuration from Section V.
type Variant int

// The three algorithm configurations evaluated in the paper.
const (
	// Basic is variant V1: uniform init, fixed time step.
	Basic Variant = iota + 1
	// Adaptive is V2+V3: random init, trisection line search.
	Adaptive
	// Perturbed is V2+V3+V4: Adaptive plus gradient noise and annealed
	// acceptance of worsening moves.
	Perturbed
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Basic:
		return "basic"
	case Adaptive:
		return "adaptive"
	case Perturbed:
		return "perturbed"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Defaults mirroring the paper's experimental settings (§VI).
const (
	// DefaultFixedStep is the paper's Δt = 0.000001 for the basic variant.
	DefaultFixedStep = 1e-6
	// DefaultAnnealK is the paper's annealing constant k = 10000.
	DefaultAnnealK = 10000
	// DefaultNoiseStdDev is the Gaussian σ applied to [D_P U] in V4,
	// relative to the gradient's max-norm. Calibrated so independent runs
	// land on the same optimum (see DESIGN.md §5 and the noise ablation
	// bench).
	DefaultNoiseStdDev = 0.1
	// DefaultMaxIters bounds the optimization loop.
	DefaultMaxIters = 2000
	// DefaultMinProb keeps every transition probability strictly positive,
	// preserving ergodicity along the whole trajectory.
	DefaultMinProb = 1e-7
	// DefaultLineSearchTol is the relative bracket width at which the
	// trisection stops.
	DefaultLineSearchTol = 1e-3
	// DefaultStallIters is the number of consecutive non-improving
	// iterations after which the perturbed variant stops.
	DefaultStallIters = 200
	// DefaultTolerance is the relative improvement below which an
	// iteration counts as stalled.
	DefaultTolerance = 1e-10
)

// Options configures an optimization run. Zero values select the package
// defaults above.
type Options struct {
	// Variant selects Basic, Adaptive or Perturbed. Required.
	Variant Variant
	// MaxIters bounds the number of iterations.
	MaxIters int
	// FixedStep is the Δt used by the Basic variant.
	FixedStep float64
	// InitialP overrides the variant's initialization when non-nil; it
	// must be ergodic and row-stochastic.
	InitialP *mat.Matrix
	// Seed drives random initialization (V2) and perturbations (V4).
	Seed uint64
	// NoiseStdDev is the σ of the Gaussian noise added to [D_P U] in V4.
	NoiseStdDev float64
	// AnnealK is the annealing constant k in T(n) = k / log(n+1).
	AnnealK float64
	// MinProb is the floor keeping entries strictly inside (0, 1).
	MinProb float64
	// LineSearchTol is the relative bracket width stopping the trisection.
	LineSearchTol float64
	// StallIters stops the run after this many non-improving iterations
	// (Adaptive stops at the first zero step regardless).
	StallIters int
	// Tolerance is the relative improvement threshold for stall counting.
	Tolerance float64
	// Workers is the number of OS-level workers one iteration may occupy:
	// the gradient assembly, its O(M³) contractions, and the line-search
	// probes are row- or probe-partitioned across them. Results are
	// bit-for-bit identical for every value — parallelism here changes
	// scheduling, never arithmetic order. Zero selects GOMAXPROCS; one
	// forces the exact serial code path (no pool, no extra goroutines).
	// Below the fork/join crossover (M < 24 PoIs, see NewIterationPool)
	// every iteration runs on the calling goroutine whatever Workers
	// says, with identical results; there Workers instead bounds the
	// restarts a multi-start search runs at once (see NewRestartFan).
	Workers int
	// Solver selects the markov linear-algebra backend for every chain
	// solve the run performs (iterate evaluations, gradients, and all
	// line-search probes). The zero value, markov.MethodDense, is the
	// bit-exact reference the golden traces pin; markov.MethodSparse
	// scales with the factor fill instead of M³ and agrees with dense to
	// markov.SparseTol (see DESIGN.md §11), falling back to the dense
	// path automatically on near-singular systems.
	Solver markov.Method
	// RecordTrace captures one IterRecord per iteration in the result.
	RecordTrace bool
	// OnIteration, when non-nil, is invoked after every iteration with the
	// current record and accepted matrix; experiment harnesses use it to
	// drive side-by-side simulations (Figs. 6–8).
	OnIteration func(rec IterRecord, p *mat.Matrix)
}

// withDefaults returns a copy of o with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.MaxIters == 0 {
		o.MaxIters = DefaultMaxIters
	}
	if o.FixedStep == 0 {
		o.FixedStep = DefaultFixedStep
	}
	if o.NoiseStdDev == 0 {
		o.NoiseStdDev = DefaultNoiseStdDev
	}
	if o.AnnealK == 0 {
		o.AnnealK = DefaultAnnealK
	}
	if o.MinProb == 0 {
		o.MinProb = DefaultMinProb
	}
	if o.LineSearchTol == 0 {
		o.LineSearchTol = DefaultLineSearchTol
	}
	if o.StallIters == 0 {
		o.StallIters = DefaultStallIters
	}
	if o.Tolerance == 0 {
		o.Tolerance = DefaultTolerance
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

func (o Options) validate() error {
	switch o.Variant {
	case Basic, Adaptive, Perturbed:
	default:
		return fmt.Errorf("%w: unknown variant %d", ErrOptions, int(o.Variant))
	}
	if o.MaxIters < 0 || o.FixedStep < 0 || o.NoiseStdDev < 0 ||
		o.AnnealK < 0 || o.MinProb < 0 || o.LineSearchTol < 0 ||
		o.StallIters < 0 || o.Tolerance < 0 {
		return fmt.Errorf("%w: negative numeric option", ErrOptions)
	}
	if o.MinProb >= 0.5 {
		return fmt.Errorf("%w: MinProb %v too large", ErrOptions, o.MinProb)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: negative Workers %d", ErrOptions, o.Workers)
	}
	switch o.Solver {
	case markov.MethodDense, markov.MethodSparse:
	default:
		return fmt.Errorf("%w: unknown solver method %d", ErrOptions, int(o.Solver))
	}
	return nil
}

// IterRecord is one iteration of the optimization trace.
type IterRecord struct {
	// Iter is the 1-based iteration number.
	Iter int
	// U is the penalized cost after the iteration's accepted state.
	U float64
	// Objective is the unpenalized cost.
	Objective float64
	// DeltaC and EBar are the paper's two metrics (Eqs. 12–13).
	DeltaC float64
	EBar   float64
	// Step is the step size taken this iteration (0 when the move was
	// rejected).
	Step float64
	// Accepted reports whether the candidate move was kept.
	Accepted bool
	// Probes counts the line-search cost evaluations behind this
	// iteration's step choice (always 0 for the Basic variant's fixed
	// step). The count is scheduling-dependent: the batched search may
	// evaluate probes past the serial cutoff, so it can differ across
	// Workers settings even though the chosen step is bit-identical.
	Probes int
}

// Result is the outcome of an optimization run.
type Result struct {
	// P is the best transition matrix found.
	P *mat.Matrix
	// Eval is the cost breakdown at P.
	Eval *cost.Evaluation
	// Iters is the number of iterations executed.
	Iters int
	// Converged reports whether the run stopped before MaxIters (zero
	// adaptive step, or stall detection).
	Converged bool
	// LocalOptimum reports that the adaptive line search returned a zero
	// step (the paper's definition of hitting a local optimum).
	LocalOptimum bool
	// Accepted and Rejected count candidate moves kept and discarded —
	// for the perturbed variant the ratio exposes how often the annealed
	// acceptance is actually consulted.
	Accepted int
	Rejected int
	// Trace holds per-iteration records when Options.RecordTrace is set.
	Trace []IterRecord
}

// Optimizer runs steepest descent for one cost model.
//
// Every Optimizer owns a private evaluation workspace and direction/
// candidate buffers, so its hot loop allocates nothing in steady state
// and concurrent optimizers (RunManyParallel workers) never share mutable
// state — only the immutable Model.
type Optimizer struct {
	model *cost.Model
	opts  Options
	src   *rng.Source

	ws    *cost.Workspace
	dir   *mat.Matrix // projected (negated) descent direction
	noisy *mat.Matrix // V4 perturbed gradient
	cand  *mat.Matrix // line-search / acceptance candidate iterate

	// Parallel machinery, nil/empty when NewIterationPool gives no pool
	// (Workers <= 1, or M below the fan-out crossover). Each pool worker
	// owns a private evaluation workspace and candidate buffer so probe
	// batches share nothing mutable; probeDelta/probeU are the batched
	// line search's step grid and results.
	pool       *par.Pool
	probeWS    []*cost.Workspace
	probeCand  []*mat.Matrix
	probeDelta []float64
	probeU     []float64
	ptask      probeTask

	// probes counts φ evaluations of the current iteration's line search;
	// reset on lineSearch entry, reported via IterRecord.Probes.
	probes int
}

// minFanOutOrder is the chain order M from which one optimizer iteration
// fans out across a worker pool. Below it the fork/join handshake of
// every probe batch and gradient phase costs more than the parallel work
// saves. It sits at the measured crossover of BenchmarkLineSearchStep,
// Workers=2 against Workers=1 on a 2-vCPU Xeon VM (Go 1.24): M4 +45%
// time, M8 +7%, M16 about even, M24 −10%, M32 −32%. Tests lower it to
// exercise the pooled paths on small models.
var minFanOutOrder = 24

// NewIterationPool returns the pool one optimizer iteration over M-state
// chains fans out across, or nil when the iteration should stay on the
// calling goroutine: workers ≤ 1, or m below the measured fork/join
// crossover. Both the single-sensor and the fleet optimizers size their
// in-iteration fan-out here. A nil pool changes no results — every
// fan-out they perform is bit-identical to its serial path.
func NewIterationPool(workers, m int) *par.Pool {
	if !iterationFansOut(workers, m) {
		return nil
	}
	return par.New(workers)
}

// iterationFansOut is NewIterationPool's decision: whether an iteration
// over M-state chains gets a pool of the given width.
func iterationFansOut(workers, m int) bool {
	return workers > 1 && m >= minFanOutOrder
}

// NewRestartFan returns the scheduler for the n restarts of a
// multi-start search over M-state chains. It runs min(workers, n)
// restarts at once when an iteration gets no pool from
// NewIterationPool, so the workers the iteration leaves idle go to the
// restarts, and one at a time when the iteration fans out itself.
// Workers zero means GOMAXPROCS; one keeps the restarts sequential.
func NewRestartFan(workers, m, n int) *Fan {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if iterationFansOut(workers, m) {
		return newFan(1)
	}
	return newFan(min(workers, n))
}

// New validates the options and builds an Optimizer.
func New(model *cost.Model, opts Options) (*Optimizer, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	n := model.Topology().M()
	o := &Optimizer{
		model: model,
		opts:  opts,
		src:   rng.New(opts.Seed),
		ws:    model.NewWorkspace(),
		dir:   mat.New(n, n),
		noisy: mat.New(n, n),
		cand:  mat.New(n, n),
	}
	o.ws.SetSolver(opts.Solver)
	if o.pool = NewIterationPool(opts.Workers, n); o.pool != nil {
		w := o.pool.Workers()
		o.ws.SetPool(o.pool)
		o.probeWS = make([]*cost.Workspace, w)
		o.probeCand = make([]*mat.Matrix, w)
		for i := 0; i < w; i++ {
			o.probeWS[i] = model.NewWorkspace()
			o.probeWS[i].SetSolver(opts.Solver)
			o.probeCand[i] = mat.New(n, n)
		}
		o.probeDelta = make([]float64, 0, lsMaxProbes)
		o.probeU = make([]float64, lsMaxProbes)
		o.ptask.o = o
	}
	return o, nil
}

// keepBest records a new best iterate and its evaluation in res.
//
// Without an iteration pool it copies them into the Result's own
// buffers, allocated once at the initial point, so an improvement
// allocates nothing. That is the case the restarts of a best-of search
// run concurrently in (see NewRestartFan), where allocations made while
// the collector marks on a fractional worker all count as live.
//
// With a pool it keeps fresh clones instead: there a run that
// allocates nothing starts every collection inside the next model
// build, and the peak live heap of perfbench's 64-PoI field workload
// read 5.8 MB in some runs and 10-11.7 MB in others on a 2-vCPU VM
// (DESIGN.md §8.5); with a clone per improvement it reads 5.8-6.4 MB.
// The results are identical either way.
func (o *Optimizer) keepBest(res *Result, p *mat.Matrix, ev *cost.Evaluation) {
	if o.pool != nil {
		res.P = p.Clone()
		res.Eval = ev.Clone()
		return
	}
	// Every iterate has the model's shape, so the copy cannot fail.
	_ = res.P.CopyFrom(p)
	ev.CopyTo(res.Eval)
}

// UniformInit returns the V1 initialization p_ij = 1/M.
func UniformInit(m int) *mat.Matrix {
	p := mat.New(m, m)
	v := 1 / float64(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			p.Set(i, j, v)
		}
	}
	return p
}

// RandomInit returns the V2 initialization: each row is drawn with the
// paper's rand·rem/M scheme and then floored at minProb (renormalizing) so
// the chain is ergodic and every entry is strictly inside the polytope.
func RandomInit(src *rng.Source, m int, minProb float64) *mat.Matrix {
	p := mat.New(m, m)
	row := make([]float64, m)
	for i := 0; i < m; i++ {
		src.StochasticRow(row)
		clampRow(row, minProb)
		p.SetRow(i, row)
	}
	return p
}

// clampRow raises entries below floor to floor and renormalizes the row to
// unit sum.
func clampRow(row []float64, floor float64) {
	if floor <= 0 {
		return
	}
	var sum float64
	for i := range row {
		if row[i] < floor {
			row[i] = floor
		}
		sum += row[i]
	}
	for i := range row {
		row[i] /= sum
	}
}

// initialMatrix picks the starting point per the variant.
func (o *Optimizer) initialMatrix() *mat.Matrix {
	if o.opts.InitialP != nil {
		p := o.opts.InitialP.Clone()
		for i := 0; i < p.Rows(); i++ {
			row := p.Row(i)
			clampRow(row, o.opts.MinProb)
			p.SetRow(i, row)
		}
		return p
	}
	m := o.model.Topology().M()
	if o.opts.Variant == Basic {
		return UniformInit(m)
	}
	return RandomInit(o.src, m, o.opts.MinProb)
}

// Run executes the configured optimization and returns the best solution
// found.
func (o *Optimizer) Run() (*Result, error) {
	return o.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation. The context is checked
// between iterations only, so an uncancelled run performs exactly the same
// floating-point operations in the same order as Run (the golden traces
// pin this). When the context is cancelled mid-run, RunContext stops
// promptly and returns the best-so-far Result together with an error
// wrapping ctx.Err(); a context already cancelled on entry yields a nil
// Result.
func (o *Optimizer) RunContext(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, cancelErr(err, 0)
	}
	// The pool starts lazily on first use; stopping it on exit means idle
	// optimizers hold no goroutines between runs.
	defer o.pool.Stop()
	switch o.opts.Variant {
	case Basic:
		return o.runBasic(ctx)
	case Adaptive:
		return o.runAdaptive(ctx)
	case Perturbed:
		return o.runPerturbed(ctx)
	default:
		return nil, fmt.Errorf("%w: unknown variant", ErrOptions)
	}
}

// cancelErr wraps a context error so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) keep working for callers.
func cancelErr(err error, iters int) error {
	return fmt.Errorf("descent: cancelled after %d iterations: %w", iters, err)
}

// record appends a trace record and fires the iteration callback.
func (o *Optimizer) record(res *Result, rec IterRecord, p *mat.Matrix) {
	if o.opts.RecordTrace {
		res.Trace = append(res.Trace, rec)
	}
	if o.opts.OnIteration != nil {
		o.opts.OnIteration(rec, p)
	}
}

// runBasic is variant V1: a fixed-step projected gradient loop.
func (o *Optimizer) runBasic(ctx context.Context) (*Result, error) {
	p := o.initialMatrix()
	ev, err := o.model.EvaluateIn(o.ws, p)
	if err != nil {
		return nil, fmt.Errorf("descent: evaluate initial point: %w", err)
	}
	res := &Result{P: p.Clone(), Eval: ev.Clone()}
	best := ev.U
	stall := 0
	for iter := 1; iter <= o.opts.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return res, cancelErr(err, res.Iters)
		}
		// ev is the workspace's evaluation at the current p (initial
		// evaluate, then the post-step evaluate of every iteration), so the
		// gradient can reuse its Markov solution instead of re-solving.
		grad, err := o.model.GradientSolvedIn(o.ws, ev)
		if err != nil {
			return nil, fmt.Errorf("descent: iteration %d: %w", iter, err)
		}
		cost.ProjectTo(o.dir, grad)
		mat.ScaleInPlace(-1, o.dir)

		// Clip the fixed step to the feasibility bound so the iterate
		// never leaves the polytope interior.
		step := o.opts.FixedStep
		if bound := maxFeasibleStep(p, o.dir, o.opts.MinProb); bound < step {
			step = bound
		}
		if step > 0 {
			if err := mat.AddInPlace(p, step, o.dir); err != nil {
				return nil, err
			}
		}
		ev, err = o.model.EvaluateIn(o.ws, p)
		if err != nil {
			return nil, fmt.Errorf("descent: iteration %d: %w", iter, err)
		}
		res.Iters = iter
		res.Accepted++
		o.record(res, IterRecord{
			Iter: iter, U: ev.U, Objective: ev.Objective,
			DeltaC: ev.DeltaC, EBar: ev.EBar, Step: step, Accepted: true,
		}, p)
		if ev.U < best {
			if best-ev.U < o.opts.Tolerance*math.Max(1, math.Abs(best)) {
				stall++
			} else {
				stall = 0
			}
			best = ev.U
			o.keepBest(res, p, ev)
		} else {
			stall++
		}
		if stall >= o.opts.StallIters {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// runAdaptive is V2+V3: line-searched descent that stops at the first
// local optimum.
func (o *Optimizer) runAdaptive(ctx context.Context) (*Result, error) {
	p := o.initialMatrix()
	ev, err := o.model.EvaluateIn(o.ws, p)
	if err != nil {
		return nil, fmt.Errorf("descent: evaluate initial point: %w", err)
	}
	res := &Result{P: p.Clone(), Eval: ev.Clone()}
	// Scalar snapshot of the current iterate's evaluation: the workspace's
	// Evaluation is overwritten by every line-search probe, so anything
	// needed across a lineSearch call must be copied out first.
	curU, curObj, curDC, curEB := ev.U, ev.Objective, ev.DeltaC, ev.EBar
	stall := 0
	for iter := 1; iter <= o.opts.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return res, cancelErr(err, res.Iters)
		}
		// The workspace holds the evaluation at the current p on every path
		// into the loop top (initial evaluate, then the accepted-step
		// evaluate below — line-search probes clobber it in between, but the
		// post-step EvaluateIn always runs last), so the gradient reuses
		// that Markov solution instead of re-solving the chain.
		grad, err := o.model.GradientSolvedIn(o.ws, ev)
		if err != nil {
			return nil, fmt.Errorf("descent: iteration %d: %w", iter, err)
		}
		cost.ProjectTo(o.dir, grad)
		mat.ScaleInPlace(-1, o.dir)

		step, _, ok := o.lineSearch(p, o.dir, curU)
		res.Iters = iter
		if !ok || step == 0 {
			// Δt* = 0: the paper's criterion for a local optimum.
			res.Converged = true
			res.LocalOptimum = true
			o.record(res, IterRecord{
				Iter: iter, U: curU, Objective: curObj,
				DeltaC: curDC, EBar: curEB, Step: 0, Accepted: false,
				Probes: o.probes,
			}, p)
			break
		}
		prevU := curU
		if err := mat.AddInPlace(p, step, o.dir); err != nil {
			return nil, err
		}
		ev, err = o.model.EvaluateIn(o.ws, p)
		if err != nil {
			return nil, fmt.Errorf("descent: iteration %d: %w", iter, err)
		}
		curU, curObj, curDC, curEB = ev.U, ev.Objective, ev.DeltaC, ev.EBar
		res.Accepted++
		o.record(res, IterRecord{
			Iter: iter, U: ev.U, Objective: ev.Objective,
			DeltaC: ev.DeltaC, EBar: ev.EBar, Step: step, Accepted: true,
			Probes: o.probes,
		}, p)
		if ev.U < res.Eval.U {
			o.keepBest(res, p, ev)
		}
		// "Within some tolerance level" (§V): many consecutive iterations
		// of negligible relative improvement is a practical Δt* ≈ 0.
		if prevU-ev.U < o.opts.Tolerance*math.Max(1, math.Abs(prevU)) {
			stall++
		} else {
			stall = 0
		}
		if stall >= o.opts.StallIters {
			res.Converged = true
			res.LocalOptimum = true
			break
		}
	}
	return res, nil
}

// runPerturbed is V2+V3+V4: noisy descent with annealed acceptance.
func (o *Optimizer) runPerturbed(ctx context.Context) (*Result, error) {
	p := o.initialMatrix()
	ev, err := o.model.EvaluateIn(o.ws, p)
	if err != nil {
		return nil, fmt.Errorf("descent: evaluate initial point: %w", err)
	}
	res := &Result{P: p.Clone(), Eval: ev.Clone()}
	bestU := ev.U
	// Scalar snapshot of the last accepted evaluation (the workspace's
	// Evaluation is reused by every probe and candidate evaluation).
	curU, curObj, curDC, curEB := ev.U, ev.Objective, ev.DeltaC, ev.EBar
	stall := 0
	// evAtP tracks whether the workspace's evaluation (and its Markov
	// solution) is current for p: true after the initial evaluate and after
	// an accepted candidate (the p/cand swap makes the candidate's
	// evaluation the iterate's), false once line-search probes or a
	// rejected candidate have clobbered the workspace. When true, the
	// gradient skips the O(M³) chain re-solve; either way the bits are
	// identical because re-solving the same p reproduces the same solution.
	evAtP := true
	for iter := 1; iter <= o.opts.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return res, cancelErr(err, res.Iters)
		}
		var grad *mat.Matrix
		var err error
		if evAtP {
			grad, err = o.model.GradientSolvedIn(o.ws, ev)
		} else {
			ev, grad, err = o.model.GradientIn(o.ws, p)
		}
		if err != nil {
			return nil, fmt.Errorf("descent: iteration %d: %w", iter, err)
		}
		// V4: perturb [D_P U] with mean-zero Gaussian noise scaled to the
		// gradient's own magnitude, then project.
		scale := mat.MaxAbs(grad)
		if scale == 0 {
			scale = 1
		}
		if err := o.noisy.CopyFrom(grad); err != nil {
			return nil, err
		}
		for i := 0; i < o.noisy.Rows(); i++ {
			for j := 0; j < o.noisy.Cols(); j++ {
				o.noisy.Add(i, j, o.src.Norm(0, o.opts.NoiseStdDev*scale))
			}
		}
		cost.ProjectTo(o.dir, o.noisy)
		mat.ScaleInPlace(-1, o.dir)

		step, _, ok := o.lineSearch(p, o.dir, curU)
		evAtP = false // probe evaluations may have clobbered the workspace
		if !ok || step == 0 {
			// Zero optimal step: take a uniform random step within bounds
			// (the paper's escape move).
			bound := maxFeasibleStep(p, o.dir, o.opts.MinProb)
			if bound <= 0 {
				stall++
				if stall >= o.opts.StallIters {
					res.Converged = true
					res.Iters = iter
					break
				}
				continue
			}
			step = o.src.Uniform(0, bound)
		}

		cand := o.cand
		if err := cand.CopyFrom(p); err != nil {
			return nil, err
		}
		if err := mat.AddInPlace(cand, step, o.dir); err != nil {
			return nil, err
		}
		candEv, err := o.model.EvaluateIn(o.ws, cand)
		if err != nil {
			return nil, fmt.Errorf("descent: iteration %d: %w", iter, err)
		}

		accepted := false
		if candEv.U < curU {
			accepted = true
		} else {
			// Annealed acceptance with Hajek logarithmic cooling
			// T(n) = k / log(n+1); Δ is the worsening normalized by the
			// best cost so far so the schedule is scale-free (see
			// DESIGN.md on the paper's formula).
			norm := math.Abs(bestU)
			if norm == 0 {
				norm = 1
			}
			delta := (candEv.U - curU) / norm
			temp := o.opts.AnnealK / math.Log(float64(iter)+1)
			if temp > 0 && o.src.Float64() < math.Exp(-delta/temp) {
				accepted = true
			}
		}

		res.Iters = iter
		if accepted {
			res.Accepted++
			// Swap the iterate and candidate buffers instead of cloning;
			// both stay owned by the optimizer. The workspace's evaluation
			// was computed at the candidate, which is now p — the next
			// iteration's gradient reuses its Markov solution.
			p, o.cand = o.cand, p
			ev = candEv
			evAtP = true
			curU, curObj, curDC, curEB = candEv.U, candEv.Objective, candEv.DeltaC, candEv.EBar
		} else {
			res.Rejected++
		}
		o.record(res, IterRecord{
			Iter: iter, U: curU, Objective: curObj,
			DeltaC: curDC, EBar: curEB, Step: step, Accepted: accepted,
			Probes: o.probes,
		}, p)

		if candEv.U < bestU-o.opts.Tolerance*math.Max(1, math.Abs(bestU)) {
			stall = 0
		} else {
			stall++
		}
		if candEv.U < bestU {
			bestU = candEv.U
			o.keepBest(res, cand, candEv)
		}
		if stall >= o.opts.StallIters {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// maxFeasibleStep returns the largest δ ≥ 0 such that every entry of
// p + δ·dir stays within [floor, 1-floor]. Row sums are preserved by the
// projection, so only the box constraints bind.
func maxFeasibleStep(p, dir *mat.Matrix, floor float64) float64 {
	bound := math.Inf(1)
	pd := p.Data()
	dd := dir.Data()
	for i, v := range dd {
		if v == 0 {
			continue
		}
		cur := pd[i]
		var room float64
		if v > 0 {
			room = (1 - floor - cur) / v
		} else {
			room = (floor - cur) / v
		}
		if room < bound {
			bound = room
		}
	}
	if math.IsInf(bound, 1) || bound < 0 {
		return 0
	}
	return bound
}

// lineSearch implements V3: an approximate minimization of
// φ(δ) = U(P + δ·dir) over [0, δ_max]. Because the minimizer is routinely
// orders of magnitude smaller than the feasibility bound (the gradient
// magnitude sets the natural step scale, not the box constraints), a
// linear trisection alone cannot resolve it; the search therefore first
// brackets the minimizer on a geometric (log-scale) grid and then runs the
// paper's conservative trisection inside that bracket. It returns the
// chosen step, the cost at that step, and false when no positive step
// improves on curU (the paper's Δt* = 0 case).
func (o *Optimizer) lineSearch(p, dir *mat.Matrix, curU float64) (float64, float64, bool) {
	o.probes = 0
	bound := maxFeasibleStep(p, dir, o.opts.MinProb)
	if bound <= 0 {
		return 0, curU, false
	}
	// Any numerically meaningful improvement counts; convergence ("within
	// some tolerance level", §V) is judged by the caller's stall counter,
	// not here, so the search is not cut off prematurely.
	target := curU - 1e-15*math.Max(1, math.Abs(curU))
	if o.pool.Workers() > 1 {
		return o.lineSearchBatched(p, dir, curU, bound, target)
	}
	phi := func(delta float64) float64 {
		return o.phiEval(p, dir, delta)
	}

	// Phase 1: geometric scan δ_k = bound / 4^k. The scan stops once the
	// incumbent has been left behind by two scales (φ is locally unimodal
	// in log δ near the minimizer) or the steps become physically
	// meaningless.
	bestStep, bestU := 0.0, curU
	worseStreak := 0
	for k, delta := 0, bound; k < lsMaxProbes && delta > 1e-18*bound; k, delta = k+1, delta/lsShrink {
		u := phi(delta)
		if u < bestU {
			bestStep, bestU = delta, u
			worseStreak = 0
		} else if bestStep > 0 {
			worseStreak++
			if worseStreak >= 2 {
				break
			}
		}
	}
	if bestStep == 0 || bestU >= target {
		return 0, curU, false
	}

	// Phase 2: conservative trisection within one geometric scale on each
	// side of the phase-1 incumbent.
	lo := bestStep / lsShrink
	hi := math.Min(bound, bestStep*lsShrink)
	tol := o.opts.LineSearchTol * (hi - lo)
	for hi-lo > tol {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		u1 := phi(m1)
		u2 := phi(m2)
		if u1 < bestU {
			bestStep, bestU = m1, u1
		}
		if u2 < bestU {
			bestStep, bestU = m2, u2
		}
		// Conservative trisection: remove exactly one outer sub-section.
		if u1 <= u2 {
			hi = m2
		} else {
			lo = m1
		}
	}
	return bestStep, bestU, true
}

// Line-search shape constants, shared by the serial and batched paths so
// both walk the identical step grid.
const (
	// lsShrink is the geometric scan's scale factor.
	lsShrink = 4.0
	// lsMaxProbes caps the phase-1 grid (and sizes the probe buffers).
	lsMaxProbes = 48
)

// lineSearchBatched is the line search with probe evaluations fanned out
// across the pool. φ(δ) is a pure function of δ — every probe builds its
// candidate in a worker-private buffer and evaluates it in a worker-private
// workspace — so evaluating a batch ahead of the serial decision point
// changes no values. The selection logic below then replays the serial
// scan in grid order over the batch results (including the two-scale
// worse-streak cutoff, which just discards any probes past the serial
// break), so the chosen step, cost, and ok flag are bit-for-bit the
// serial ones.
func (o *Optimizer) lineSearchBatched(p, dir *mat.Matrix, curU, bound, target float64) (float64, float64, bool) {
	deltas := o.probeDelta[:0]
	for k, delta := 0, bound; k < lsMaxProbes && delta > 1e-18*bound; k, delta = k+1, delta/lsShrink {
		deltas = append(deltas, delta)
	}
	width := o.pool.Workers()
	bestStep, bestU := 0.0, curU
	worseStreak := 0
scan:
	for start := 0; start < len(deltas); start += width {
		end := min(start+width, len(deltas))
		o.evalProbes(p, dir, deltas[start:end], start)
		for idx := start; idx < end; idx++ {
			if u := o.probeU[idx]; u < bestU {
				bestStep, bestU = deltas[idx], u
				worseStreak = 0
			} else if bestStep > 0 {
				worseStreak++
				if worseStreak >= 2 {
					break scan
				}
			}
		}
	}
	if bestStep == 0 || bestU >= target {
		return 0, curU, false
	}

	// Phase 2: both trisection probes of each round are independent, so
	// they evaluate concurrently; the bracket update is unchanged.
	lo := bestStep / lsShrink
	hi := math.Min(bound, bestStep*lsShrink)
	tol := o.opts.LineSearchTol * (hi - lo)
	pair := o.probeDelta[:2]
	for hi-lo > tol {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		pair[0], pair[1] = m1, m2
		o.evalProbes(p, dir, pair, 0)
		u1 := o.probeU[0]
		u2 := o.probeU[1]
		if u1 < bestU {
			bestStep, bestU = m1, u1
		}
		if u2 < bestU {
			bestStep, bestU = m2, u2
		}
		if u1 <= u2 {
			hi = m2
		} else {
			lo = m1
		}
	}
	return bestStep, bestU, true
}

// probeTask evaluates a batch of line-search probes; probe k of the batch
// lands in probeU[base+k]. It lives inside the Optimizer so dispatching it
// does not allocate.
type probeTask struct {
	o      *Optimizer
	p, dir *mat.Matrix
	ds     []float64
	base   int
}

func (t *probeTask) Run(w, lo, hi int) {
	o := t.o
	for k := lo; k < hi; k++ {
		o.probeU[t.base+k] = o.phiEvalIn(o.probeWS[w], o.probeCand[w], t.p, t.dir, t.ds[k])
	}
}

// evalProbes computes φ(δ) for every δ in ds across the pool, writing
// results to probeU[base:base+len(ds)].
func (o *Optimizer) evalProbes(p, dir *mat.Matrix, ds []float64, base int) {
	o.probes += len(ds)
	o.ptask.p, o.ptask.dir, o.ptask.ds, o.ptask.base = p, dir, ds, base
	o.pool.Run(len(ds), &o.ptask)
}

// phiEval computes φ(δ) = U(P + δ·dir) into the optimizer's candidate
// buffer and workspace, allocating nothing. Infeasible or non-ergodic
// probes evaluate to +Inf.
func (o *Optimizer) phiEval(p, dir *mat.Matrix, delta float64) float64 {
	o.probes++
	return o.phiEvalIn(o.ws, o.cand, p, dir, delta)
}

// phiEvalIn is phiEval against an explicit workspace and candidate buffer,
// so batched probes can run in worker-private storage.
func (o *Optimizer) phiEvalIn(ws *cost.Workspace, cand, p, dir *mat.Matrix, delta float64) float64 {
	if err := cand.CopyFrom(p); err != nil {
		return math.Inf(1)
	}
	if err := mat.AddInPlace(cand, delta, dir); err != nil {
		return math.Inf(1)
	}
	ev, err := o.model.EvaluateIn(ws, cand)
	if err != nil {
		return math.Inf(1)
	}
	return ev.U
}

// RunMany executes n independent runs with seeds split from opts.Seed and
// returns all results; the experiment harness uses it for the CDFs of
// Fig. 2 and the statistics of Table III.
func RunMany(model *cost.Model, opts Options, n int) ([]*Result, error) {
	return RunManyParallelContext(context.Background(), model, opts, n, 1)
}

// RunManyContext is RunMany with cooperative cancellation; see
// RunManyParallelContext for the cancellation contract.
func RunManyContext(ctx context.Context, model *cost.Model, opts Options, n int) ([]*Result, error) {
	return RunManyParallelContext(ctx, model, opts, n, 1)
}

// RunManyParallel is RunMany with up to `workers` runs in flight at once.
// Results are identical to the sequential version for any worker count:
// per-run seeds are split from opts.Seed up front and results land at
// their run's index. The cost model is shared across workers, which is
// safe because Model is immutable after construction.
func RunManyParallel(model *cost.Model, opts Options, n, workers int) ([]*Result, error) {
	return RunManyParallelContext(context.Background(), model, opts, n, workers)
}

// RunManyParallelContext is RunManyParallel with cooperative
// cancellation. When the context is cancelled mid-sweep, in-flight runs
// stop at their next iteration boundary and the call returns the result
// slice — holding a best-so-far Result for every run that made progress
// and nil for runs that never started — together with an error wrapping
// ctx.Err(). For an uncancelled context the results are bit-for-bit
// identical to RunManyParallel.
func RunManyParallelContext(ctx context.Context, model *cost.Model, opts Options, n, workers int) ([]*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d runs", ErrOptions, n)
	}
	master := rng.New(opts.Seed)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	out := make([]*Result, n)
	err := newFan(workers).Run(ctx, n, func(i int) error {
		var err error
		out[i], err = runOne(ctx, model, opts, seeds[i])
		if err != nil && !errors.Is(err, ctx.Err()) {
			return fmt.Errorf("descent: run %d: %w", i, err)
		}
		return nil
	})
	if err != nil && !errors.Is(err, ctx.Err()) {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return out, cancelErr(err, 0)
	}
	return out, nil
}

// runOne executes a single seeded run.
func runOne(ctx context.Context, model *cost.Model, opts Options, seed uint64) (*Result, error) {
	runOpts := opts
	runOpts.Seed = seed
	opt, err := New(model, runOpts)
	if err != nil {
		return nil, err
	}
	return opt.RunContext(ctx)
}
