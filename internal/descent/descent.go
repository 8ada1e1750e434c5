// Package descent implements the paper's steepest-descent search over the
// space of all Markov transition matrices (Sections IV–V). As in the
// paper, the three configurations evaluated in §VI are increments on one
// steepest-descent loop, so the package runs a single loop whose
// per-variant choices (initialization, gradient noise, step rule,
// zero-step handling, acceptance and stop rule) are fixed by the Variant:
//
//   - Basic (V1): uniform initialization p_ij = 1/M and a fixed step Δt;
//     every step is kept.
//   - Adaptive (V2+V3): random initialization and an optimal step chosen
//     each iteration by a conservative trisection line search bounded by
//     the box constraints 0 ≤ p_ij ≤ 1; a zero optimal step flags a local
//     optimum and terminates the search.
//   - Perturbed (V2+V3+V4): the adaptive algorithm with mean-zero Gaussian
//     noise added to [D_P U], a random step within bounds when the line
//     search finds none, and a simulated-annealing acceptance rule (Hajek
//     logarithmic cooling, T(n) = k / log(n+1)) that lets the search
//     escape the numerous local optima of the solution space.
//
// The loop runs over a stack of K transition matrices behind the
// Objective interface: one sensor's cost.Model (K = 1, see New) or the
// joint cost of a fleet of K sensors. Every step direction is the negated
// projection (Eq. 11) of the gradient blocks [D_P U] (Eq. 10), so
// iterates keep exact unit row sums; a configurable probability floor
// keeps them strictly inside the polytope, matching the role of the
// paper's barrier penalty.
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
	// Initial overrides the variant's initialization when non-nil: one
	// ergodic row-stochastic matrix per stacked sensor (K of them), each
	// clamped to MinProb and renormalized.
	Initial []*mat.Matrix
	// Seed drives random initialization (V2) and perturbations (V4). One
	// stream serves the whole stack, consumed in fixed sensor order, so a
	// seed pins the entire trajectory.
	Seed uint64
	// NoiseStdDev is the σ of the Gaussian noise added to [D_P U] in V4,
	// relative to the stacked gradient's max-norm.
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
	// current record and accepted stack; experiment harnesses use it to
	// drive side-by-side simulations (Figs. 6–8).
	OnIteration func(rec IterRecord, ps []*mat.Matrix)
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

// Result is the outcome of an optimization run; E is the objective's
// evaluation breakdown (*cost.Evaluation for one sensor).
type Result[E any] struct {
	// Ps is the best stack found, one matrix per sensor.
	Ps []*mat.Matrix
	// P is Ps[0], the whole answer of a single-sensor run.
	P *mat.Matrix
	// Eval is the cost breakdown at Ps.
	Eval E
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

// Optimizer runs steepest descent for one objective.
//
// Every Optimizer owns a private evaluation state and gradient/
// direction/candidate stacks, so its hot loop allocates nothing in
// steady state and concurrent optimizers (RunManyParallel workers, the
// restarts of a best-of search) never share mutable state — only the
// immutable Objective.
type Optimizer[S State[E], E any] struct {
	opts Options
	src  *rng.Source
	k, m int

	st   S             // evaluation state of iterates, candidates and serial probes
	grad []*mat.Matrix // gradient blocks (V4 perturbs them in place)
	dir  []*mat.Matrix // projected (negated) descent direction
	cand []*mat.Matrix // line-search / acceptance candidate stack

	// Parallel machinery, nil/empty when NewIterationPool gives no pool
	// (Workers <= 1, or M below the fan-out crossover). Each pool worker
	// owns a private evaluation state and candidate stack so probe
	// batches share nothing mutable; probeDelta/probeU are the batched
	// line search's step grid and results.
	pool       *par.Pool
	probeSt    []S
	probeCand  [][]*mat.Matrix
	probeDelta []float64
	probeU     []float64
	ptask      probeTask[S, E]

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
// crossover. A nil pool changes no results — every fan-out an iteration
// performs is bit-identical to its serial path.
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

// New validates the options and builds an Optimizer for one sensor's
// cost model, the K = 1 objective.
func New(model *cost.Model, opts Options) (*Optimizer[*singleState, *cost.Evaluation], error) {
	return NewOptimizer(single{model}, opts)
}

// NewOptimizer validates the options and builds an Optimizer over the
// given objective.
func NewOptimizer[S State[E], E any](obj Objective[S], opts Options) (*Optimizer[S, E], error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	k, m := obj.Shape()
	if opts.Initial != nil && len(opts.Initial) != k {
		return nil, fmt.Errorf("%w: %d initial matrices for %d sensors", ErrOptions, len(opts.Initial), k)
	}
	o := &Optimizer[S, E]{
		opts: opts,
		src:  rng.New(opts.Seed),
		k:    k,
		m:    m,
		grad: newStack(k, m),
		dir:  newStack(k, m),
		cand: newStack(k, m),
		pool: NewIterationPool(opts.Workers, m),
	}
	o.st = obj.NewState(opts.Solver, o.pool)
	if o.pool != nil {
		w := o.pool.Workers()
		o.probeSt = make([]S, w)
		o.probeCand = make([][]*mat.Matrix, w)
		for i := 0; i < w; i++ {
			o.probeSt[i] = obj.NewState(opts.Solver, nil)
			o.probeCand[i] = newStack(k, m)
		}
		o.probeDelta = make([]float64, 0, lsMaxProbes)
		o.probeU = make([]float64, lsMaxProbes)
		o.ptask.o = o
	}
	return o, nil
}

// newStack allocates k zero m×m matrices.
func newStack(k, m int) []*mat.Matrix {
	ps := make([]*mat.Matrix, k)
	for s := range ps {
		ps[s] = mat.New(m, m)
	}
	return ps
}

// keepBest records a new best stack, whose evaluation is the state's
// last one, in res.
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
func (o *Optimizer[S, E]) keepBest(res *Result[E], ps []*mat.Matrix) {
	if o.pool != nil {
		for s, p := range ps {
			res.Ps[s] = p.Clone()
		}
		res.P = res.Ps[0]
		res.Eval = o.st.Clone()
		return
	}
	for s, p := range ps {
		// Every iterate has the objective's shape, so the copy cannot fail.
		_ = res.Ps[s].CopyFrom(p)
	}
	o.st.CopyTo(res.Eval)
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

// initialStack picks the starting point per the variant, drawing random
// initializations sensor by sensor from the run's stream.
func (o *Optimizer[S, E]) initialStack() []*mat.Matrix {
	ps := make([]*mat.Matrix, o.k)
	for s := range ps {
		switch {
		case o.opts.Initial != nil:
			p := o.opts.Initial[s].Clone()
			for i := 0; i < p.Rows(); i++ {
				row := p.Row(i)
				clampRow(row, o.opts.MinProb)
				p.SetRow(i, row)
			}
			ps[s] = p
		case o.opts.Variant == Basic:
			ps[s] = UniformInit(o.m)
		default:
			ps[s] = RandomInit(o.src, o.m, o.opts.MinProb)
		}
	}
	return ps
}

// Run executes the configured optimization and returns the best solution
// found.
func (o *Optimizer[S, E]) Run() (*Result[E], error) {
	return o.RunContext(context.Background())
}

// cancelErr wraps a context error so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) keep working for callers.
func cancelErr(err error, iters int) error {
	return fmt.Errorf("descent: cancelled after %d iterations: %w", iters, err)
}

// record appends a trace record and fires the iteration callback.
func (o *Optimizer[S, E]) record(res *Result[E], rec IterRecord, ps []*mat.Matrix) {
	if o.opts.RecordTrace {
		res.Trace = append(res.Trace, rec)
	}
	if o.opts.OnIteration != nil {
		o.opts.OnIteration(rec, ps)
	}
}

// RunContext is Run with cooperative cancellation. The context is checked
// between iterations only, so an uncancelled run performs exactly the same
// floating-point operations in the same order as Run (the golden traces
// pin this). When the context is cancelled mid-run, RunContext stops
// promptly and returns the best-so-far Result together with an error
// wrapping ctx.Err(); a context already cancelled on entry yields a nil
// Result.
//
// Every variant runs this one loop: gradient, direction, step, candidate,
// acceptance, best tracking, stop rule. All randomness comes from the
// run's single stream, so the trajectory is a pure function of the
// options and seed.
func (o *Optimizer[S, E]) RunContext(ctx context.Context) (*Result[E], error) {
	if err := ctx.Err(); err != nil {
		return nil, cancelErr(err, 0)
	}
	// The pool starts lazily on first use; stopping it on exit means idle
	// optimizers hold no goroutines between runs.
	defer o.pool.Stop()
	p := o.initialStack()
	curU, err := o.st.Evaluate(p)
	if err != nil {
		return nil, fmt.Errorf("descent: evaluate initial point: %w", err)
	}
	// Scalar snapshot of the current iterate's evaluation: the state's
	// last evaluation is overwritten by every probe and candidate.
	curObj, curDC, curEB := o.st.Metrics()
	res := &Result[E]{Ps: make([]*mat.Matrix, o.k), Eval: o.st.Clone()}
	for s := range p {
		res.Ps[s] = p[s].Clone()
	}
	res.P = res.Ps[0]
	bestU := curU
	stall := 0
	// evAtP tracks whether the state's last evaluation (and its Markov
	// solutions) is current for p: true after the initial evaluate and
	// after an accepted candidate (the p/cand swap makes the candidate's
	// evaluation the iterate's), false once line-search probes or a
	// rejected candidate have clobbered the state. When true, the gradient
	// skips the O(M³) chain re-solves; either way the bits are identical
	// because re-solving the same p reproduces the same solution.
	evAtP := true
	for iter := 1; iter <= o.opts.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return res, cancelErr(err, res.Iters)
		}
		// Every iteration that starts counts, including one that finds
		// no feasible step and changes nothing.
		res.Iters = iter
		if !evAtP {
			if _, err := o.st.Evaluate(p); err != nil {
				return nil, fmt.Errorf("descent: iteration %d: %w", iter, err)
			}
		}
		if err := o.st.Gradient(o.grad); err != nil {
			return nil, fmt.Errorf("descent: iteration %d: %w", iter, err)
		}
		o.direction()

		var step float64
		if o.opts.Variant == Basic {
			// Clip the fixed step to the feasibility bound so the iterate
			// never leaves the polytope interior.
			step = o.opts.FixedStep
			if bound := maxFeasibleStep(p, o.dir, o.opts.MinProb); bound < step {
				step = bound
			}
		} else {
			var ok bool
			step, _, ok = o.lineSearch(p, o.dir, curU)
			evAtP = false // probe evaluations may have clobbered the state
			if !ok || step == 0 {
				if o.opts.Variant == Adaptive {
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
				// Zero optimal step: take a uniform random step within
				// bounds (the paper's escape move).
				bound := maxFeasibleStep(p, o.dir, o.opts.MinProb)
				if bound <= 0 {
					stall++
					if stall >= o.opts.StallIters {
						res.Converged = true
						break
					}
					continue
				}
				step = o.src.Uniform(0, bound)
			}
		}

		next := o.cand
		if err := stepTo(next, p, o.dir, step); err != nil {
			return nil, err
		}
		candU, err := o.st.Evaluate(next)
		if err != nil {
			return nil, fmt.Errorf("descent: iteration %d: %w", iter, err)
		}
		prevU := curU
		accepted := o.opts.Variant != Perturbed || candU < curU || o.anneal(candU, curU, bestU, iter)

		if accepted {
			res.Accepted++
			// Swap the iterate and candidate stacks instead of cloning;
			// both stay owned by the optimizer. The state's evaluation was
			// computed at the candidate, which is now p — the next
			// iteration's gradient reuses its Markov solutions.
			p, o.cand = next, p
			evAtP = true
			curU = candU
			curObj, curDC, curEB = o.st.Metrics()
		} else {
			res.Rejected++
		}
		o.record(res, IterRecord{
			Iter: iter, U: curU, Objective: curObj,
			DeltaC: curDC, EBar: curEB, Step: step, Accepted: accepted,
			Probes: o.probes,
		}, p)

		stall = o.stallAfter(stall, candU, prevU, bestU)
		if candU < bestU {
			bestU = candU
			o.keepBest(res, next)
		}
		if stall >= o.opts.StallIters {
			res.Converged = true
			res.LocalOptimum = o.opts.Variant == Adaptive
			break
		}
	}
	return res, nil
}

// direction turns the gradient blocks into the projected descent
// direction. V4 first perturbs [D_P U] with mean-zero Gaussian noise
// scaled to the stacked gradient's max-norm (the max over all K blocks),
// drawn block by block in sensor order so one stream pins the stack.
func (o *Optimizer[S, E]) direction() {
	if o.opts.Variant == Perturbed {
		scale := mat.MaxAbs(o.grad[0])
		for _, g := range o.grad[1:] {
			if v := mat.MaxAbs(g); v > scale {
				scale = v
			}
		}
		if scale == 0 {
			scale = 1
		}
		for _, g := range o.grad {
			data := g.Data()
			for i := range data {
				data[i] += o.src.Norm(0, o.opts.NoiseStdDev*scale)
			}
		}
	}
	for s, g := range o.grad {
		cost.ProjectTo(o.dir[s], g)
		mat.ScaleInPlace(-1, o.dir[s])
	}
}

// anneal is V4's acceptance test for a worsening candidate: Hajek
// logarithmic cooling T(n) = k / log(n+1), with Δ the worsening
// normalized by the best cost so far so the schedule is scale-free (see
// DESIGN.md on the paper's formula).
func (o *Optimizer[S, E]) anneal(candU, curU, bestU float64, iter int) bool {
	norm := math.Abs(bestU)
	if norm == 0 {
		norm = 1
	}
	delta := (candU - curU) / norm
	temp := o.opts.AnnealK / math.Log(float64(iter)+1)
	return temp > 0 && o.src.Float64() < math.Exp(-delta/temp)
}

// stallAfter returns the stall count after an iteration whose candidate
// cost candU was reached from prevU with bestU the best cost before it.
// Each variant keeps its own rule: V1 compares a new best against the
// previous best, V2+V3 compares consecutive iterates ("within some
// tolerance level", §V — many consecutive negligible improvements are a
// practical Δt* ≈ 0), and V4 requires the candidate to undercut the best
// by the tolerance.
func (o *Optimizer[S, E]) stallAfter(stall int, candU, prevU, bestU float64) int {
	tol := o.opts.Tolerance
	switch o.opts.Variant {
	case Basic:
		if candU < bestU {
			if bestU-candU < tol*math.Max(1, math.Abs(bestU)) {
				return stall + 1
			}
			return 0
		}
		return stall + 1
	case Adaptive:
		if prevU-candU < tol*math.Max(1, math.Abs(prevU)) {
			return stall + 1
		}
		return 0
	default:
		if candU < bestU-tol*math.Max(1, math.Abs(bestU)) {
			return 0
		}
		return stall + 1
	}
}

// stepTo writes p + δ·dir into dst, sensor by sensor; a zero step leaves
// dst a copy of p.
func stepTo(dst, p, dir []*mat.Matrix, delta float64) error {
	for s := range dst {
		if err := dst[s].CopyFrom(p[s]); err != nil {
			return err
		}
		if delta == 0 {
			continue
		}
		if err := mat.AddInPlace(dst[s], delta, dir[s]); err != nil {
			return err
		}
	}
	return nil
}

// maxFeasibleStep returns the largest δ ≥ 0 such that every entry of
// every sensor's p + δ·dir stays within [floor, 1-floor]. Row sums are
// preserved by the projection, so only the box constraints bind.
func maxFeasibleStep(ps, dirs []*mat.Matrix, floor float64) float64 {
	bound := math.Inf(1)
	for s := range ps {
		pd := ps[s].Data()
		for i, v := range dirs[s].Data() {
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
func (o *Optimizer[S, E]) lineSearch(p, dir []*mat.Matrix, curU float64) (float64, float64, bool) {
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

	// Phase 1: geometric scan δ_k = bound / 4^k. The scan stops once the
	// incumbent has been left behind by two scales (φ is locally unimodal
	// in log δ near the minimizer) or the steps become physically
	// meaningless.
	bestStep, bestU := 0.0, curU
	worseStreak := 0
	for k, delta := 0, bound; k < lsMaxProbes && delta > 1e-18*bound; k, delta = k+1, delta/lsShrink {
		u := o.phi(p, dir, delta)
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
		u1 := o.phi(p, dir, m1)
		u2 := o.phi(p, dir, m2)
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
// candidate in a worker-private stack and evaluates it in a
// worker-private state — so evaluating a batch ahead of the serial
// decision point changes no values. The selection logic below then
// replays the serial scan in grid order over the batch results (including
// the two-scale worse-streak cutoff, which just discards any probes past
// the serial break), so the chosen step, cost, and ok flag are bit-for-bit
// the serial ones.
func (o *Optimizer[S, E]) lineSearchBatched(p, dir []*mat.Matrix, curU, bound, target float64) (float64, float64, bool) {
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
type probeTask[S State[E], E any] struct {
	o      *Optimizer[S, E]
	p, dir []*mat.Matrix
	ds     []float64
	base   int
}

func (t *probeTask[S, E]) Run(w, lo, hi int) {
	o := t.o
	for k := lo; k < hi; k++ {
		o.probeU[t.base+k] = phiIn(o.probeSt[w], o.probeCand[w], t.p, t.dir, t.ds[k])
	}
}

// evalProbes computes φ(δ) for every δ in ds across the pool, writing
// results to probeU[base:base+len(ds)].
func (o *Optimizer[S, E]) evalProbes(p, dir []*mat.Matrix, ds []float64, base int) {
	o.probes += len(ds)
	o.ptask.p, o.ptask.dir, o.ptask.ds, o.ptask.base = p, dir, ds, base
	o.pool.Run(len(ds), &o.ptask)
}

// phi computes φ(δ) = U(P + δ·dir) into the optimizer's candidate stack
// and state, allocating nothing.
func (o *Optimizer[S, E]) phi(p, dir []*mat.Matrix, delta float64) float64 {
	o.probes++
	return phiIn(o.st, o.cand, p, dir, delta)
}

// phiIn is phi against an explicit state and candidate stack, so batched
// probes can run in worker-private storage. Infeasible or non-ergodic
// probes evaluate to +Inf.
func phiIn[S State[E], E any](st S, cand, p, dir []*mat.Matrix, delta float64) float64 {
	if err := stepTo(cand, p, dir, delta); err != nil {
		return math.Inf(1)
	}
	u, err := st.Evaluate(cand)
	if err != nil {
		return math.Inf(1)
	}
	return u
}

// RunMany executes n independent runs with seeds split from opts.Seed and
// returns all results; the experiment harness uses it for the CDFs of
// Fig. 2 and the statistics of Table III.
func RunMany(model *cost.Model, opts Options, n int) ([]*Result[*cost.Evaluation], error) {
	return RunManyParallelContext(context.Background(), model, opts, n, 1)
}

// RunManyContext is RunMany with cooperative cancellation; see
// RunManyParallelContext for the cancellation contract.
func RunManyContext(ctx context.Context, model *cost.Model, opts Options, n int) ([]*Result[*cost.Evaluation], error) {
	return RunManyParallelContext(ctx, model, opts, n, 1)
}

// RunManyParallel is RunMany with up to `workers` runs in flight at once.
// Results are identical to the sequential version for any worker count:
// per-run seeds are split from opts.Seed up front and results land at
// their run's index. The cost model is shared across workers, which is
// safe because Model is immutable after construction.
func RunManyParallel(model *cost.Model, opts Options, n, workers int) ([]*Result[*cost.Evaluation], error) {
	return RunManyParallelContext(context.Background(), model, opts, n, workers)
}

// RunManyParallelContext is RunManyParallel with cooperative
// cancellation. When the context is cancelled mid-sweep, in-flight runs
// stop at their next iteration boundary and the call returns the result
// slice — holding a best-so-far Result for every run that made progress
// and nil for runs that never started — together with an error wrapping
// ctx.Err(). For an uncancelled context the results are bit-for-bit
// identical to RunManyParallel.
func RunManyParallelContext(ctx context.Context, model *cost.Model, opts Options, n, workers int) ([]*Result[*cost.Evaluation], error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d runs", ErrOptions, n)
	}
	master := rng.New(opts.Seed)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	out := make([]*Result[*cost.Evaluation], n)
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
func runOne(ctx context.Context, model *cost.Model, opts Options, seed uint64) (*Result[*cost.Evaluation], error) {
	runOpts := opts
	runOpts.Seed = seed
	opt, err := New(model, runOpts)
	if err != nil {
		return nil, err
	}
	return opt.RunContext(ctx)
}
