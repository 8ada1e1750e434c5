package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/cost"
	"repro/internal/descent"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
)

// ErrOptions indicates an invalid fleet Options configuration.
var ErrOptions = errors.New("fleet: invalid options")

// Options configures a joint fleet optimization run. The numeric knobs
// mirror descent.Options (the stacked search is the perturbed variant
// V2+V3+V4 over K·M² parameters); zero values select the same defaults.
type Options struct {
	// Sensors is the fleet size K. Required (≥ 1).
	Sensors int
	// Responsibility is the optional K×M responsibility assignment; nil
	// selects the uniform 1/K split. See NewModel.
	Responsibility [][]float64
	// MaxIters bounds the number of iterations.
	MaxIters int
	// Seed drives the random initialization, gradient noise, and annealed
	// acceptance. One stream serves the whole fleet, consumed in fixed
	// sensor order, so a seed pins the entire stacked trajectory.
	Seed uint64
	// NoiseStdDev is the σ of the V4 Gaussian noise, relative to the
	// stacked gradient's max-norm.
	NoiseStdDev float64
	// AnnealK is the annealing constant in T(n) = k / log(n+1).
	AnnealK float64
	// MinProb keeps every transition probability of every sensor strictly
	// inside (0, 1).
	MinProb float64
	// LineSearchTol is the relative bracket width stopping the trisection.
	LineSearchTol float64
	// StallIters stops the run after this many non-improving iterations.
	StallIters int
	// Tolerance is the relative improvement threshold for stall counting.
	Tolerance float64
	// Workers bounds the OS-level workers one iteration may occupy. The
	// fleet fan-out owns one sensor per span — each sensor's chain solve,
	// evaluation, and gradient assembly runs entirely inside one worker's
	// span — so results are bit-for-bit identical for every value. Zero
	// selects GOMAXPROCS; one forces the serial path. Below the fork/join
	// crossover (M < 24 PoIs, see descent.NewIterationPool) every
	// iteration runs on the calling goroutine whatever Workers says, with
	// identical results.
	Workers int
	// Solver selects the markov backend for every per-sensor chain solve.
	Solver markov.Method
	// InitialPs overrides the random initialization with K starting
	// matrices (each is clamped to MinProb and renormalized, matching the
	// single-sensor warm-start contract).
	InitialPs []*mat.Matrix
	// RecordTrace captures one descent.IterRecord per iteration.
	RecordTrace bool
	// OnIteration, when non-nil, observes every iteration with the
	// current record and the accepted stack.
	OnIteration func(rec descent.IterRecord, ps []*mat.Matrix)
}

// withDefaults returns a copy of o with zero fields replaced by the
// descent package defaults.
func (o Options) withDefaults() Options {
	if o.MaxIters == 0 {
		o.MaxIters = descent.DefaultMaxIters
	}
	if o.NoiseStdDev == 0 {
		o.NoiseStdDev = descent.DefaultNoiseStdDev
	}
	if o.AnnealK == 0 {
		o.AnnealK = descent.DefaultAnnealK
	}
	if o.MinProb == 0 {
		o.MinProb = descent.DefaultMinProb
	}
	if o.LineSearchTol == 0 {
		o.LineSearchTol = descent.DefaultLineSearchTol
	}
	if o.StallIters == 0 {
		o.StallIters = descent.DefaultStallIters
	}
	if o.Tolerance == 0 {
		o.Tolerance = descent.DefaultTolerance
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

func (o Options) validate() error {
	if o.Sensors < 1 {
		return fmt.Errorf("%w: %d sensors", ErrOptions, o.Sensors)
	}
	if o.MaxIters < 0 || o.NoiseStdDev < 0 || o.AnnealK < 0 || o.MinProb < 0 ||
		o.LineSearchTol < 0 || o.StallIters < 0 || o.Tolerance < 0 {
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
	if o.InitialPs != nil && len(o.InitialPs) != o.Sensors {
		return fmt.Errorf("%w: %d initial matrices for %d sensors",
			ErrOptions, len(o.InitialPs), o.Sensors)
	}
	return nil
}

// Result is the outcome of a fleet optimization run.
type Result struct {
	// Ps is the best K-matrix stack found.
	Ps []*mat.Matrix
	// Eval is the joint cost breakdown at Ps.
	Eval *Evaluation
	// Iters is the number of iterations executed.
	Iters int
	// Converged reports whether the run stalled out before MaxIters.
	Converged bool
	// Accepted and Rejected count candidate moves kept and discarded.
	Accepted int
	Rejected int
	// Trace holds per-iteration records when Options.RecordTrace is set.
	Trace []descent.IterRecord
}

// The per-sensor phases of an iteration run as pool tasks, one sensor
// per index: the pool's contiguous spans give each worker a private set
// of sensors, and every sensor touches only its own workspace and
// buffers, so results are identical for every worker count. The tasks
// live inside the Optimizer, so dispatching them allocates nothing (a
// closure handed to the pool would escape to the heap on every call).

// evalTask evaluates sensor s of the stack ps into the workspaces.
type evalTask struct {
	o  *Optimizer
	ps []*mat.Matrix
}

func (t *evalTask) Run(_, lo, hi int) {
	o := t.o
	for s := lo; s < hi; s++ {
		o.evs[s], o.serrs[s] = o.fm.cm.EvaluateIn(o.ws[s], t.ps[s])
	}
}

// gradTask assembles sensor s's gradient block into o.noisy[s].
type gradTask struct {
	o *Optimizer
}

func (t *gradTask) Run(_, lo, hi int) {
	o := t.o
	for s := lo; s < hi; s++ {
		g, err := o.fm.cm.GradientWeightedSolvedIn(o.ws[s], o.evs[s], o.coverCoef, o.cphis[s], o.betaMask[s])
		if err != nil {
			o.serrs[s] = err
			continue
		}
		o.serrs[s] = o.noisy[s].CopyFrom(g)
	}
}

// Optimizer runs the stacked perturbed descent. Like descent.Optimizer
// it owns all its buffers: one evaluation workspace, gradient, and
// direction/candidate matrix per sensor, so the hot loop allocates
// nothing and the per-sensor fan-out shares no mutable state.
type Optimizer struct {
	fm   *Model
	opts Options
	src  *rng.Source

	ws    []*cost.Workspace
	evs   []*cost.Evaluation // ws[s]'s current evaluation
	ps    []*mat.Matrix      // current iterate stack
	dir   []*mat.Matrix      // projected descent direction per sensor
	noisy []*mat.Matrix
	cand  []*mat.Matrix

	coverCoef []float64   // shared c_i = α_i G_i^fleet
	cphis     []float64   // per-sensor Σ_i c_i ρ_{s,i} Φ_i
	betaMask  [][]float64 // per-sensor argmin-masked β

	cur, candEv, probeEv *Evaluation

	pool  *par.Pool
	etask evalTask
	gtask gradTask
	serrs []error

	probes int
}

// NewOptimizer validates the options and builds a fleet Optimizer over
// the given single-sensor cost model.
func NewOptimizer(cm *cost.Model, opts Options) (*Optimizer, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	fm, err := NewModel(cm, opts.Sensors, opts.Responsibility)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	k, n := fm.k, fm.m
	o := &Optimizer{
		fm:        fm,
		opts:      opts,
		src:       rng.New(opts.Seed),
		ws:        make([]*cost.Workspace, k),
		evs:       make([]*cost.Evaluation, k),
		ps:        make([]*mat.Matrix, k),
		dir:       make([]*mat.Matrix, k),
		noisy:     make([]*mat.Matrix, k),
		cand:      make([]*mat.Matrix, k),
		coverCoef: make([]float64, n),
		cphis:     make([]float64, k),
		betaMask:  make([][]float64, k),
		cur:       fm.newEvaluation(),
		candEv:    fm.newEvaluation(),
		probeEv:   fm.newEvaluation(),
		serrs:     make([]error, k),
	}
	for s := 0; s < k; s++ {
		o.ws[s] = cm.NewWorkspace()
		o.ws[s].SetSolver(opts.Solver)
		o.dir[s] = mat.New(n, n)
		o.noisy[s] = mat.New(n, n)
		o.cand[s] = mat.New(n, n)
		o.betaMask[s] = make([]float64, n)
	}
	o.etask.o = o
	o.gtask.o = o
	if k > 1 {
		o.pool = descent.NewIterationPool(opts.Workers, n)
	}
	return o, nil
}

// sensorErr folds the per-sensor error slots into the first (lowest
// sensor index) failure, clearing the slots for the next fan-out.
func (o *Optimizer) sensorErr() error {
	var first error
	firstAt := -1
	for s, err := range o.serrs {
		if err != nil && firstAt < 0 {
			first, firstAt = err, s
		}
		o.serrs[s] = nil
	}
	if first == nil {
		return nil
	}
	return fmt.Errorf("fleet: sensor %d: %w", firstAt, first)
}

// evalInto evaluates the stack into out using the optimizer's
// workspaces (clobbering their current evaluations).
func (o *Optimizer) evalInto(out *Evaluation, ps []*mat.Matrix) error {
	// A nil pool runs the task on the calling goroutine.
	o.etask.ps = ps
	o.pool.Run(o.fm.k, &o.etask)
	if err := o.sensorErr(); err != nil {
		return err
	}
	o.fm.combine(o.evs, out)
	return nil
}

// gradient assembles the stacked gradient blocks into o.dir's backing
// (via each workspace's gradient buffer), projects them, and negates —
// leaving o.dir[s] the feasible descent direction for sensor s. cur must
// be the joint evaluation matching the workspaces' current state.
func (o *Optimizer) gradient(cur *Evaluation) error {
	for i := 0; i < o.fm.m; i++ {
		o.coverCoef[i] = o.fm.alpha[i] * cur.G[i]
	}
	for s := 0; s < o.fm.k; s++ {
		o.cphis[s] = o.fm.coverPhi(o.coverCoef, s)
		o.fm.maskBeta(o.betaMask[s], cur.Owner, s)
	}
	o.pool.Run(o.fm.k, &o.gtask)
	return o.sensorErr()
}

// clampRow raises entries below floor to floor and renormalizes,
// matching descent's warm-start clamping.
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

// initialStack builds the starting matrices: warm starts when provided,
// otherwise the V2 random initialization drawn per sensor in ascending
// order from the run's single stream.
func (o *Optimizer) initialStack() []*mat.Matrix {
	out := make([]*mat.Matrix, o.fm.k)
	for s := 0; s < o.fm.k; s++ {
		if o.opts.InitialPs != nil {
			p := o.opts.InitialPs[s].Clone()
			for i := 0; i < p.Rows(); i++ {
				row := p.Row(i)
				clampRow(row, o.opts.MinProb)
				p.SetRow(i, row)
			}
			out[s] = p
			continue
		}
		out[s] = descent.RandomInit(o.src, o.fm.m, o.opts.MinProb)
	}
	return out
}

// stackMaxFeasibleStep returns the largest δ ≥ 0 keeping every entry of
// every sensor's p + δ·dir inside [floor, 1−floor] — the single-sensor
// bound folded over the stack.
func stackMaxFeasibleStep(ps, dirs []*mat.Matrix, floor float64) float64 {
	bound := math.Inf(1)
	for s := range ps {
		pd := ps[s].Data()
		dd := dirs[s].Data()
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
	}
	if math.IsInf(bound, 1) || bound < 0 {
		return 0
	}
	return bound
}

// Run executes the stacked perturbed descent.
func (o *Optimizer) Run() (*Result, error) {
	return o.RunContext(context.Background())
}

// cloneStack deep-copies a matrix stack.
func cloneStack(ps []*mat.Matrix) []*mat.Matrix {
	out := make([]*mat.Matrix, len(ps))
	for s, p := range ps {
		out[s] = p.Clone()
	}
	return out
}

// keepBest copies a new best stack and its joint evaluation into the
// Result's own buffers, allocated once at the initial stack, so an
// improvement allocates nothing.
func (r *Result) keepBest(ps []*mat.Matrix, ev *Evaluation) {
	for s, p := range ps {
		// Every stack has the model's shape, so the copy cannot fail.
		_ = r.Ps[s].CopyFrom(p)
	}
	ev.CopyTo(r.Eval)
}

// cancelErr mirrors descent's context-error wrapping.
func cancelErr(err error, iters int) error {
	return fmt.Errorf("fleet: cancelled after %d iterations: %w", iters, err)
}

// record appends a trace record and fires the iteration callback.
func (o *Optimizer) record(res *Result, rec descent.IterRecord, ps []*mat.Matrix) {
	if o.opts.RecordTrace {
		res.Trace = append(res.Trace, rec)
	}
	if o.opts.OnIteration != nil {
		o.opts.OnIteration(rec, ps)
	}
}

// RunContext is Run with cooperative cancellation, checked between
// iterations only — an uncancelled run is bit-identical to Run.
//
// The loop is the perturbed single-sensor algorithm (V2+V3+V4)
// transliterated to the stacked space: one gradient-noise-project pass
// per sensor, one shared scalar line search along the joint direction,
// and one annealed accept/reject over the joint cost. All randomness
// comes from the run's single stream in fixed sensor order, so the
// trajectory is a pure function of (options, seed).
func (o *Optimizer) RunContext(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, cancelErr(err, 0)
	}
	if o.pool != nil {
		defer o.pool.Stop()
	}
	o.ps = o.initialStack()
	if err := o.evalInto(o.cur, o.ps); err != nil {
		return nil, fmt.Errorf("fleet: evaluate initial stack: %w", err)
	}
	res := &Result{Ps: cloneStack(o.ps), Eval: o.fm.newEvaluation()}
	o.cur.CopyTo(res.Eval)
	bestU := o.cur.U
	curU, curObj, curDC, curEB := o.cur.U, o.cur.Objective, o.cur.DeltaC, o.cur.EBar
	stall := 0
	// evAtP mirrors descent.runPerturbed: true whenever every workspace's
	// evaluation (and o.cur) is current for o.ps, letting the gradient
	// skip K chain re-solves.
	evAtP := true
	for iter := 1; iter <= o.opts.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return res, cancelErr(err, res.Iters)
		}
		if !evAtP {
			if err := o.evalInto(o.cur, o.ps); err != nil {
				return nil, fmt.Errorf("fleet: iteration %d: %w", iter, err)
			}
		}
		if err := o.gradient(o.cur); err != nil {
			return nil, fmt.Errorf("fleet: iteration %d: %w", iter, err)
		}
		// V4 noise, scaled to the stacked gradient's max-norm (the max
		// over all K blocks) and drawn in sensor order so one stream pins
		// the whole stack.
		var scale float64
		for s := 0; s < o.fm.k; s++ {
			if v := mat.MaxAbs(o.noisy[s]); v > scale {
				scale = v
			}
		}
		if scale == 0 {
			scale = 1
		}
		for s := 0; s < o.fm.k; s++ {
			ns := o.noisy[s]
			for i := 0; i < ns.Rows(); i++ {
				for j := 0; j < ns.Cols(); j++ {
					ns.Add(i, j, o.src.Norm(0, o.opts.NoiseStdDev*scale))
				}
			}
			cost.ProjectTo(o.dir[s], ns)
			mat.ScaleInPlace(-1, o.dir[s])
		}

		step, ok := o.lineSearch(curU)
		evAtP = false
		if !ok || step == 0 {
			bound := stackMaxFeasibleStep(o.ps, o.dir, o.opts.MinProb)
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

		for s := 0; s < o.fm.k; s++ {
			if err := o.cand[s].CopyFrom(o.ps[s]); err != nil {
				return nil, err
			}
			if err := mat.AddInPlace(o.cand[s], step, o.dir[s]); err != nil {
				return nil, err
			}
		}
		if err := o.evalInto(o.candEv, o.cand); err != nil {
			return nil, fmt.Errorf("fleet: iteration %d: %w", iter, err)
		}
		candU := o.candEv.U

		accepted := false
		if candU < curU {
			accepted = true
		} else {
			norm := math.Abs(bestU)
			if norm == 0 {
				norm = 1
			}
			delta := (candU - curU) / norm
			temp := o.opts.AnnealK / math.Log(float64(iter)+1)
			if temp > 0 && o.src.Float64() < math.Exp(-delta/temp) {
				accepted = true
			}
		}

		res.Iters = iter
		if accepted {
			res.Accepted++
			// Swap the iterate and candidate stacks and the evaluation
			// holders; the workspaces hold the candidate's solutions,
			// which are now the iterate's.
			o.ps, o.cand = o.cand, o.ps
			o.cur, o.candEv = o.candEv, o.cur
			evAtP = true
			curU, curObj = o.cur.U, o.cur.Objective
			curDC, curEB = o.cur.DeltaC, o.cur.EBar
		} else {
			res.Rejected++
		}
		o.record(res, descent.IterRecord{
			Iter: iter, U: curU, Objective: curObj,
			DeltaC: curDC, EBar: curEB, Step: step, Accepted: accepted,
			Probes: o.probes,
		}, o.ps)

		if candU < bestU-o.opts.Tolerance*math.Max(1, math.Abs(bestU)) {
			stall = 0
		} else {
			stall++
		}
		if candU < bestU {
			bestU = candU
			// On accept the candidate stack was swapped into o.ps; either
			// way the winning matrices live where the evaluation says.
			if accepted {
				res.keepBest(o.ps, o.cur)
			} else {
				res.keepBest(o.cand, o.candEv)
			}
		}
		if stall >= o.opts.StallIters {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// Line-search shape constants, mirroring descent's grid so the stacked
// search walks the same schedule.
const (
	lsShrink    = 4.0
	lsMaxProbes = 48
)

// phi evaluates the joint cost at ps + δ·dir into the probe scratch.
// Infeasible or non-ergodic probes evaluate to +Inf, exactly as in the
// single-sensor search.
func (o *Optimizer) phi(delta float64) float64 {
	o.probes++
	for s := 0; s < o.fm.k; s++ {
		if err := o.cand[s].CopyFrom(o.ps[s]); err != nil {
			return math.Inf(1)
		}
		if err := mat.AddInPlace(o.cand[s], delta, o.dir[s]); err != nil {
			return math.Inf(1)
		}
	}
	if err := o.evalInto(o.probeEv, o.cand); err != nil {
		return math.Inf(1)
	}
	return o.probeEv.U
}

// lineSearch is descent's V3 search (geometric bracket + conservative
// trisection) over the shared stacked step. Probes run one at a time —
// the per-probe K-sensor evaluation is what fans out across the pool —
// so the probe sequence is identical for every worker count.
func (o *Optimizer) lineSearch(curU float64) (float64, bool) {
	o.probes = 0
	bound := stackMaxFeasibleStep(o.ps, o.dir, o.opts.MinProb)
	if bound <= 0 {
		return 0, false
	}
	target := curU - 1e-15*math.Max(1, math.Abs(curU))

	bestStep, bestU := 0.0, curU
	worseStreak := 0
	for k, delta := 0, bound; k < lsMaxProbes && delta > 1e-18*bound; k, delta = k+1, delta/lsShrink {
		u := o.phi(delta)
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
		return 0, false
	}

	lo := bestStep / lsShrink
	hi := math.Min(bound, bestStep*lsShrink)
	tol := o.opts.LineSearchTol * (hi - lo)
	for hi-lo > tol {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		u1 := o.phi(m1)
		u2 := o.phi(m2)
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
	return bestStep, true
}

// Optimize runs one seeded fleet optimization over the given cost model.
func Optimize(cm *cost.Model, opts Options) (*Result, error) {
	return OptimizeContext(context.Background(), cm, opts)
}

// OptimizeContext is Optimize with cooperative cancellation.
func OptimizeContext(ctx context.Context, cm *cost.Model, opts Options) (*Result, error) {
	o, err := NewOptimizer(cm, opts)
	if err != nil {
		return nil, err
	}
	return o.RunContext(ctx)
}
