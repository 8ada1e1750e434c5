package coverage

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/descent"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/rng"
)

// ErrObjectives indicates an invalid objective configuration.
var ErrObjectives = errors.New("coverage: invalid objectives")

// Objectives weights the optimization criteria (the paper's Eq. 9 with
// uniform per-PoI weights, plus the §VII extensions).
type Objectives struct {
	// Alpha weights the coverage-time deviation ΔC.
	Alpha float64 `json:"alpha"`
	// Beta weights the squared aggregate exposure Ē².
	Beta float64 `json:"beta"`
	// PerPoIAlpha, when non-nil, overrides Alpha with one weight per PoI
	// (α_i in Eq. 9) — e.g. to care about coverage fidelity only at
	// specific sites.
	PerPoIAlpha []float64 `json:"perPoiAlpha,omitempty"`
	// PerPoIBeta, when non-nil, overrides Beta with one weight per PoI
	// (β_i in Eq. 9) — e.g. to bound exposure only where incidents are
	// costly.
	PerPoIBeta []float64 `json:"perPoiBeta,omitempty"`
	// EnergyWeight, when positive, adds ½·w·(D − EnergyTarget)² on the
	// mean travel distance per transition.
	EnergyWeight float64 `json:"energyWeight,omitempty"`
	// EnergyTarget is the prescribed mean movement γ.
	EnergyTarget float64 `json:"energyTarget,omitempty"`
	// EntropyWeight, when positive, rewards schedule unpredictability by
	// subtracting λ·H from the cost.
	EntropyWeight float64 `json:"entropyWeight,omitempty"`
	// Epsilon overrides the barrier width of Eq. 9 (default 1e-4).
	Epsilon float64 `json:"epsilon,omitempty"`
}

// Algorithm selects the optimization variant (§V).
type Algorithm int

// The three algorithm configurations of the paper.
const (
	// PerturbedDescent (V2+V3+V4) is the recommended default: it escapes
	// the landscape's numerous local optima.
	PerturbedDescent Algorithm = iota
	// BasicDescent (V1) uses uniform initialization and a fixed step.
	BasicDescent
	// AdaptiveDescent (V2+V3) line-searches the step but stops at the
	// first local optimum.
	AdaptiveDescent
)

// DefaultProgressEvery is the sampling cadence (in optimizer iterations)
// for Options.OnProgress when Options.ProgressEvery is zero.
const DefaultProgressEvery = 25

// Progress is one sampled snapshot of a running optimization, delivered
// through Options.OnProgress.
type Progress struct {
	// Restart is the zero-based restart index within a multi-start search
	// (always 0 for a single Optimize call).
	Restart int `json:"restart"`
	// Iteration is the 1-based optimizer iteration within the restart.
	Iteration int `json:"iteration"`
	// Cost is the penalized cost U_ε after the iteration.
	Cost float64 `json:"cost"`
	// DeltaC and EBar are the paper's two metrics at the iterate.
	DeltaC float64 `json:"deltaC"`
	EBar   float64 `json:"eBar"`
}

// IterationEvent is the full-rate descent telemetry record delivered
// through Options.OnIteration: one event per optimizer iteration, with
// the metrics an observability layer wants (cost, step, accept/reject,
// line-search probe count).
type IterationEvent struct {
	// Restart is the zero-based restart index within a multi-start search.
	Restart int `json:"restart"`
	// Iteration is the 1-based optimizer iteration within the restart.
	Iteration int `json:"iteration"`
	// Cost is the penalized cost U_ε after the iteration.
	Cost float64 `json:"cost"`
	// DeltaC and EBar are the paper's two metrics at the iterate.
	DeltaC float64 `json:"deltaC"`
	EBar   float64 `json:"eBar"`
	// Step is the step size taken (0 when the move was rejected).
	Step float64 `json:"step"`
	// Accepted reports whether the candidate move was kept.
	Accepted bool `json:"accepted"`
	// Probes counts the line-search cost evaluations behind the step
	// choice; scheduling-dependent (see descent.IterRecord.Probes).
	Probes int `json:"probes"`
}

// Options tunes the optimizer run. The zero value is a sensible default
// (perturbed descent, automatic budget).
type Options struct {
	// Algorithm selects the descent variant.
	Algorithm Algorithm `json:"algorithm"`
	// MaxIters bounds the iteration count (default 2000).
	MaxIters int `json:"maxIters,omitempty"`
	// Seed makes the run reproducible.
	Seed uint64 `json:"seed"`
	// FixedStep is the Δt for BasicDescent (default 1e-6).
	FixedStep float64 `json:"fixedStep,omitempty"`
	// NoiseStdDev is the V4 perturbation scale (default 0.1).
	NoiseStdDev float64 `json:"noiseStdDev,omitempty"`
	// RecordTrace attaches the per-iteration history to the Plan.
	RecordTrace bool `json:"recordTrace,omitempty"`
	// InitialMatrix warm-starts the search from a given transition matrix
	// instead of the variant's default initialization. On larger PoI sets
	// (≥ 9) seeding with MetropolisBaseline typically reaches far better
	// optima than a random start.
	InitialMatrix [][]float64 `json:"initialMatrix,omitempty"`
	// InitialMatrices warm-starts a fleet search (OptimizeFleet and
	// friends) from K transition matrices, one per sensor. Ignored by the
	// single-sensor entry points; its length must equal the fleet size.
	InitialMatrices [][][]float64 `json:"initialMatrices,omitempty"`
	// OnProgress, when non-nil, receives a sampled Progress every
	// ProgressEvery iterations (plus the first iteration of each restart).
	// It must not block; the job service uses it for live progress
	// reporting. It is never serialized. Events arrive in restart order,
	// exactly as a run of the restarts one after another emits them, and
	// from one goroutine at a time, though not always the caller's: when
	// restarts run concurrently (see Workers), the events of a restart
	// that ran ahead are held back and may then arrive in a burst.
	OnProgress func(Progress) `json:"-"`
	// OnIteration, when non-nil, receives an IterationEvent for every
	// optimizer iteration (no sampling) — the telemetry feed for logs and
	// metrics. Same contract as OnProgress: restart order, one goroutine
	// at a time, possibly in bursts, must not block, never serialized.
	// Observing a run never perturbs it: uncancelled runs are bit-for-bit
	// identical with and without the hook.
	OnIteration func(IterationEvent) `json:"-"`
	// ProgressEvery is the OnProgress sampling cadence in iterations
	// (default DefaultProgressEvery).
	ProgressEvery int `json:"progressEvery,omitempty"`
	// Workers is the number of OS-level workers one optimizer iteration may
	// occupy (gradient assembly and line-search probes are partitioned
	// across them), for single-sensor and fleet searches alike: both run
	// the same descent loop. Results are bit-for-bit identical for every
	// value. Zero selects GOMAXPROCS; one forces the serial path.
	// Scenarios with fewer than 24 PoIs, where fan-out costs more than it
	// saves, run every iteration on one goroutine whatever Workers says; there
	// Workers instead bounds how many restarts of a best-of search
	// (OptimizeBest, OptimizeFleetBest) run at once, again with
	// identical results.
	Workers int `json:"workers,omitempty"`
	// Solver selects the linear-algebra backend: "" or "dense" for the
	// bit-exact dense reference, "sparse" for the factor-fill path that
	// makes city-scale PoI sets (M ≥ ~256) tractable. Sparse results
	// agree with dense to the documented tolerance (DESIGN.md §11) and
	// fall back to dense automatically on near-singular systems.
	Solver string `json:"solver,omitempty"`
}

// TracePoint is one optimizer iteration in a Plan's history.
type TracePoint struct {
	Iteration int     `json:"iteration"`
	Cost      float64 `json:"cost"`
	DeltaC    float64 `json:"deltaC"`
	EBar      float64 `json:"eBar"`
}

// Plan is an optimized coverage schedule.
type Plan struct {
	// TransitionMatrix holds the optimal p_ij: at PoI i, move next to j
	// with probability TransitionMatrix[i][j].
	TransitionMatrix [][]float64 `json:"transitionMatrix"`
	// Stationary is the chain's stationary distribution π.
	Stationary []float64 `json:"stationary"`
	// CoverageShare is the achieved long-run coverage distribution C̄_i.
	CoverageShare []float64 `json:"coverageShare"`
	// MeanExposure is the per-PoI expected exposure Ē_i, in Markov steps.
	MeanExposure []float64 `json:"meanExposureSteps"`
	// DeltaC is the coverage-time deviation metric (Eq. 12).
	DeltaC float64 `json:"deltaC"`
	// EBar is the aggregate exposure metric (Eq. 13).
	EBar float64 `json:"eBar"`
	// Cost is the achieved penalized cost U_ε.
	Cost float64 `json:"cost"`
	// Energy is the mean travel distance per transition.
	Energy float64 `json:"energy"`
	// Entropy is the schedule's entropy rate in nats.
	Entropy float64 `json:"entropyNats"`
	// Iterations is the number of optimizer iterations executed.
	Iterations int `json:"iterations"`
	// Converged reports whether the optimizer stopped before its budget.
	Converged bool `json:"converged"`
	// Trace is the optimization history (only when Options.RecordTrace).
	Trace []TracePoint `json:"trace,omitempty"`
	// Fleet carries the multi-sensor extension when the plan was produced
	// by a joint fleet optimization; nil for single-sensor plans. See
	// FleetPlan for how the single-sensor-shaped fields above are
	// reinterpreted when it is set.
	Fleet *FleetPlan `json:"fleet,omitempty"`
}

// weights converts public objectives to the internal form.
func (o Objectives) weights(m int) (cost.Weights, error) {
	if o.Alpha < 0 || o.Beta < 0 {
		return cost.Weights{}, fmt.Errorf("%w: negative α or β", ErrObjectives)
	}
	w := cost.Uniform(m, o.Alpha, o.Beta)
	if o.PerPoIAlpha != nil {
		if len(o.PerPoIAlpha) != m {
			return cost.Weights{}, fmt.Errorf("%w: %d per-PoI alphas for %d PoIs",
				ErrObjectives, len(o.PerPoIAlpha), m)
		}
		w.Alpha = append([]float64(nil), o.PerPoIAlpha...)
	}
	if o.PerPoIBeta != nil {
		if len(o.PerPoIBeta) != m {
			return cost.Weights{}, fmt.Errorf("%w: %d per-PoI betas for %d PoIs",
				ErrObjectives, len(o.PerPoIBeta), m)
		}
		w.Beta = append([]float64(nil), o.PerPoIBeta...)
	}
	var anyPrimary float64
	for i := 0; i < m; i++ {
		anyPrimary += w.Alpha[i] + w.Beta[i]
	}
	if anyPrimary == 0 && o.EnergyWeight == 0 && o.EntropyWeight == 0 {
		return cost.Weights{}, fmt.Errorf("%w: all objective weights are zero", ErrObjectives)
	}
	w.EnergyWeight = o.EnergyWeight
	w.EnergyTarget = o.EnergyTarget
	w.EntropyWeight = o.EntropyWeight
	if o.Epsilon != 0 {
		w.Epsilon = o.Epsilon
	}
	return w, nil
}

// variant maps the public algorithm to the internal one.
func (o Options) variant() descent.Variant {
	switch o.Algorithm {
	case BasicDescent:
		return descent.Basic
	case AdaptiveDescent:
		return descent.Adaptive
	default:
		return descent.Perturbed
	}
}

// planner builds the internal engine for a scenario and objectives.
func planner(scn Scenario, obj Objectives) (*core.Planner, error) {
	top, err := scn.build()
	if err != nil {
		return nil, err
	}
	w, err := obj.weights(top.M())
	if err != nil {
		return nil, err
	}
	p, err := core.NewPlanner(top, w)
	if err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	return p, nil
}

// descentOptions lowers the public Options to the internal form, with
// initial as the warm-start stack (nil for the variant's own
// initialization); the per-restart seed and iteration hook are set by
// the caller. Single-sensor and fleet searches share this lowering.
func (o Options) descentOptions(initial [][][]float64) (descent.Options, error) {
	var stack []*mat.Matrix
	for s, rows := range initial {
		m, err := mat.NewFromRows(rows)
		if err != nil {
			return descent.Options{}, fmt.Errorf("coverage: initial matrix %d: %w", s, err)
		}
		stack = append(stack, m)
	}
	var solver markov.Method
	switch o.Solver {
	case "", "dense":
		solver = markov.MethodDense
	case "sparse":
		solver = markov.MethodSparse
	default:
		return descent.Options{}, fmt.Errorf("coverage: unknown solver %q (want \"dense\" or \"sparse\")", o.Solver)
	}
	return descent.Options{
		Variant:     o.variant(),
		MaxIters:    o.MaxIters,
		FixedStep:   o.FixedStep,
		NoiseStdDev: o.NoiseStdDev,
		RecordTrace: o.RecordTrace,
		Initial:     stack,
		Workers:     o.Workers,
		Solver:      solver,
	}, nil
}

// validateInitial rejects a warm-start matrix that is not a square
// row-stochastic matrix of the scenario's dimension. The descent floor
// (MinProb) lifts exact zeros afterwards, so a warm start only needs to
// be stochastic, not strictly positive.
func (o Options) validateInitial(m int) error {
	if o.InitialMatrix == nil {
		return nil
	}
	if len(o.InitialMatrix) != m {
		return fmt.Errorf("%w: initial matrix has %d rows for %d PoIs",
			ErrObjectives, len(o.InitialMatrix), m)
	}
	if err := validateMatrix(o.InitialMatrix); err != nil {
		return fmt.Errorf("%w: initial matrix: %v", ErrObjectives, err)
	}
	return nil
}

// Validate checks a scenario/objectives pair without running an
// optimization — the cheap admission check the job service performs
// before queueing work.
func Validate(scn Scenario, obj Objectives) error {
	_, err := planner(scn, obj)
	return err
}

// Optimize computes the transition matrix minimizing the weighted
// objectives on the scenario.
func Optimize(scn Scenario, obj Objectives, opts Options) (*Plan, error) {
	return OptimizeContext(context.Background(), scn, obj, opts)
}

// OptimizeContext is Optimize with cooperative cancellation: the context
// is checked between optimizer iterations, so for an uncancelled context
// the result is bit-for-bit identical to Optimize. On cancellation it
// returns the best plan found so far (nil when no iteration completed)
// together with an error wrapping ctx.Err().
func OptimizeContext(ctx context.Context, scn Scenario, obj Objectives, opts Options) (*Plan, error) {
	return optimize(ctx, scn, obj, opts, []uint64{opts.Seed})
}

// optimize runs one single-sensor descent per seed through bestOf and
// converts the winner to a Plan.
func optimize(ctx context.Context, scn Scenario, obj Objectives, opts Options, seeds []uint64) (*Plan, error) {
	eng, err := planner(scn, obj)
	if err != nil {
		return nil, err
	}
	if err := opts.validateInitial(len(scn.PoIs)); err != nil {
		return nil, err
	}
	var initial [][][]float64
	if opts.InitialMatrix != nil {
		initial = [][][]float64{opts.InitialMatrix}
	}
	dopts, err := opts.descentOptions(initial)
	if err != nil {
		return nil, err
	}
	return bestOf(ctx, opts, len(scn.PoIs), seeds, search[*descent.Result[*cost.Evaluation]]{
		run: func(ctx context.Context, seed uint64, hook func(descent.IterRecord)) (*descent.Result[*cost.Evaluation], error) {
			d := dopts
			d.Seed = seed
			if hook != nil {
				d.OnIteration = func(rec descent.IterRecord, _ []*mat.Matrix) { hook(rec) }
			}
			return eng.OptimizeContext(ctx, d)
		},
		cost: func(res *descent.Result[*cost.Evaluation]) float64 { return res.Eval.U },
		plan: func(res *descent.Result[*cost.Evaluation]) (*Plan, error) { return planFromResult(res), nil },
	})
}

// planFromResult converts an internal descent result to the public Plan.
func planFromResult(res *descent.Result[*cost.Evaluation]) *Plan {
	n := res.P.Rows()
	p := make([][]float64, n)
	for i := 0; i < n; i++ {
		p[i] = res.P.Row(i)
	}
	plan := &Plan{
		TransitionMatrix: p,
		Stationary:       append([]float64(nil), res.Eval.Sol.Pi...),
		CoverageShare:    append([]float64(nil), res.Eval.CBar...),
		MeanExposure:     append([]float64(nil), res.Eval.EBarI...),
		DeltaC:           res.Eval.DeltaC,
		EBar:             res.Eval.EBar,
		Cost:             res.Eval.U,
		Energy:           res.Eval.Energy,
		Entropy:          res.Eval.Entropy,
		Iterations:       res.Iters,
		Converged:        res.Converged,
	}
	for _, rec := range res.Trace {
		plan.Trace = append(plan.Trace, TracePoint{
			Iteration: rec.Iter,
			Cost:      rec.U,
			DeltaC:    rec.DeltaC,
			EBar:      rec.EBar,
		})
	}
	return plan
}

// OptimizeBest runs `restarts` independent optimizations with split
// seeds and returns the plan with the lowest cost. Because the cost
// landscape has many local optima, multi-start is the cheap insurance on
// top of the perturbed variant's own noise; the returned plan is
// deterministic for a fixed Options.Seed.
func OptimizeBest(scn Scenario, obj Objectives, opts Options, restarts int) (*Plan, error) {
	return OptimizeBestContext(context.Background(), scn, obj, opts, restarts)
}

// SplitSeeds derives the per-restart seeds a multi-start search with the
// given master seed uses, in restart order. It is exported so callers
// that drive restarts one at a time (e.g. to checkpoint between them, as
// the job service does) reproduce OptimizeBest bit-for-bit: running
// Optimize with SplitSeeds(seed, n)[r] equals restart r of
// OptimizeBest with Seed = seed.
func SplitSeeds(seed uint64, restarts int) []uint64 {
	master := rng.New(seed)
	seeds := make([]uint64, restarts)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}
	return seeds
}

// OptimizeBestContext is OptimizeBest with cooperative cancellation;
// the context is checked between iterations and between restarts. On
// cancellation it starts no further restart and returns the best plan
// across every restart that made progress — including an interrupted
// one's best-so-far iterate — together with an error wrapping
// ctx.Err(); the plan is nil when nothing completed. Uncancelled runs
// are bit-for-bit identical to OptimizeBest.
//
// Below 24 PoIs, where an iteration runs on one goroutine, up to
// Options.Workers restarts run at once. The plan and the sequence of
// hook events are the same for every Workers value.
func OptimizeBestContext(ctx context.Context, scn Scenario, obj Objectives, opts Options, restarts int) (*Plan, error) {
	if restarts <= 0 {
		return nil, fmt.Errorf("%w: %d restarts", ErrObjectives, restarts)
	}
	return optimize(ctx, scn, obj, opts, SplitSeeds(opts.Seed, restarts))
}

// EvaluateMatrix computes the plan metrics for a user-supplied transition
// matrix under the scenario and objectives — useful for comparing
// hand-built or baseline schedules against optimized ones.
func EvaluateMatrix(scn Scenario, obj Objectives, p [][]float64) (*Plan, error) {
	eng, err := planner(scn, obj)
	if err != nil {
		return nil, err
	}
	pm, err := mat.NewFromRows(p)
	if err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	ev, err := eng.Evaluate(pm)
	if err != nil {
		return nil, err
	}
	n := pm.Rows()
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = pm.Row(i)
	}
	return &Plan{
		TransitionMatrix: rows,
		Stationary:       append([]float64(nil), ev.Sol.Pi...),
		CoverageShare:    append([]float64(nil), ev.CBar...),
		MeanExposure:     append([]float64(nil), ev.EBarI...),
		DeltaC:           ev.DeltaC,
		EBar:             ev.EBar,
		Cost:             ev.U,
		Energy:           ev.Energy,
		Entropy:          ev.Entropy,
	}, nil
}

// EstimateSchedule fits a transition matrix to an observed PoI-visit
// trajectory by smoothed maximum likelihood. Use it to recover the
// schedule a deployed (or third-party) sensor is actually following —
// e.g. to evaluate it under your objectives with EvaluateMatrix, to
// detect drift from a saved plan, or to warm-start re-optimization via
// Options.InitialMatrix. Positive smoothing keeps the estimate ergodic.
func EstimateSchedule(trajectory []int, pois int, smoothing float64) ([][]float64, error) {
	p, err := markov.Estimate(trajectory, pois, smoothing)
	if err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	rows := make([][]float64, p.Rows())
	for i := range rows {
		rows[i] = p.Row(i)
	}
	return rows, nil
}

// MetropolisBaseline returns the Metropolis–Hastings chain whose
// stationary distribution equals the scenario's target allocation — the
// coverage-only baseline the paper's Related Work discusses.
func MetropolisBaseline(scn Scenario) ([][]float64, error) {
	top, err := scn.build()
	if err != nil {
		return nil, err
	}
	eng, err := core.NewPlanner(top, cost.Uniform(top.M(), 1, 1))
	if err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	p, err := eng.Baseline()
	if err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	rows := make([][]float64, p.Rows())
	for i := range rows {
		rows[i] = p.Row(i)
	}
	return rows, nil
}
