package coverage

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/descent"
	"repro/internal/fleet"
	"repro/internal/mat"
)

// FleetPlan is the multi-sensor extension carried by a Plan optimized
// jointly for K sensors. When present, the enclosing Plan's fields are
// fleet-level: TransitionMatrix/Stationary describe sensor 0 (for
// backward compatibility with single-sensor consumers), CoverageShare is
// the analytic union share, MeanExposure is the min-over-sensors
// exposure, and DeltaC/EBar/Cost are the joint fleet metrics.
type FleetPlan struct {
	// Sensors is the fleet size K.
	Sensors int `json:"sensors"`
	// TransitionMatrices holds each sensor's optimized schedule;
	// TransitionMatrices[0] equals the enclosing Plan's TransitionMatrix.
	TransitionMatrices [][][]float64 `json:"transitionMatrices"`
	// Responsibility is the K×M per-PoI responsibility assignment the
	// joint cost used (uniform 1/K when it was defaulted).
	Responsibility [][]float64 `json:"responsibility,omitempty"`
	// UnionShare is the analytic per-PoI union coverage prediction
	// 1 − Π_s (1 − C̄_i^(s)).
	UnionShare []float64 `json:"unionShare"`
	// MinExposure is the per-PoI fleet exposure min_s Ē_i^(s).
	MinExposure []float64 `json:"minExposure"`
}

// validateInitialFleet rejects malformed warm-start stacks.
func (o Options) validateInitialFleet(m, sensors int) error {
	if o.InitialMatrices == nil {
		return nil
	}
	if len(o.InitialMatrices) != sensors {
		return fmt.Errorf("%w: %d initial matrices for %d sensors",
			ErrObjectives, len(o.InitialMatrices), sensors)
	}
	for s, rows := range o.InitialMatrices {
		if len(rows) != m {
			return fmt.Errorf("%w: initial matrix %d has %d rows for %d PoIs",
				ErrObjectives, s, len(rows), m)
		}
		if err := validateMatrix(rows); err != nil {
			return fmt.Errorf("%w: initial matrix %d: %v", ErrObjectives, s, err)
		}
	}
	return nil
}

// ValidateFleet checks a fleet problem — scenario, objectives, fleet
// size, and responsibility assignment — without running an optimization;
// the admission check the job service performs before queueing fleet
// work.
func ValidateFleet(scn Scenario, obj Objectives, sensors int, responsibility [][]float64) error {
	eng, err := planner(scn, obj)
	if err != nil {
		return err
	}
	if _, err := fleet.NewModel(eng.Model(), sensors, responsibility); err != nil {
		return fmt.Errorf("coverage: %w", err)
	}
	return nil
}

// OptimizeFleet jointly optimizes `sensors` schedules on the scenario:
// coverage adds across sensors through the responsibility assignment
// (uniform 1/K when nil), exposure takes the best sensor per PoI, and
// the returned plan carries all K matrices in Plan.Fleet.
func OptimizeFleet(scn Scenario, obj Objectives, opts Options, sensors int, responsibility [][]float64) (*Plan, error) {
	return OptimizeFleetContext(context.Background(), scn, obj, opts, sensors, responsibility)
}

// OptimizeFleetContext is OptimizeFleet with cooperative cancellation.
// Uncancelled runs are bit-for-bit reproducible for a fixed seed; on
// cancellation the best stack found so far is returned with an error
// wrapping ctx.Err() (nil plan when nothing completed).
func OptimizeFleetContext(ctx context.Context, scn Scenario, obj Objectives, opts Options, sensors int, responsibility [][]float64) (*Plan, error) {
	return optimizeFleet(ctx, scn, obj, opts, sensors, responsibility, []uint64{opts.Seed})
}

// optimizeFleet runs one joint fleet descent per seed through bestOf and
// converts the winner to a Plan.
func optimizeFleet(ctx context.Context, scn Scenario, obj Objectives, opts Options, sensors int, responsibility [][]float64, seeds []uint64) (*Plan, error) {
	eng, err := planner(scn, obj)
	if err != nil {
		return nil, err
	}
	if err := opts.validateInitialFleet(len(scn.PoIs), sensors); err != nil {
		return nil, err
	}
	// The fleet search is always the perturbed variant — the stacked
	// landscape has at least as many local optima as the single-sensor
	// one — so Basic/Adaptive selections are rejected rather than
	// silently reinterpreted.
	if opts.Algorithm != PerturbedDescent {
		return nil, fmt.Errorf("%w: fleet optimization supports only the perturbed variant", ErrObjectives)
	}
	dopts, err := opts.descentOptions(opts.InitialMatrices)
	if err != nil {
		return nil, err
	}
	fm, err := fleet.NewModel(eng.Model(), sensors, responsibility)
	if err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	return bestOf(ctx, opts, len(scn.PoIs), seeds, search[*descent.Result[*fleet.Evaluation]]{
		run: func(ctx context.Context, seed uint64, hook func(descent.IterRecord)) (*descent.Result[*fleet.Evaluation], error) {
			d := dopts
			d.Seed = seed
			if hook != nil {
				d.OnIteration = func(rec descent.IterRecord, _ []*mat.Matrix) { hook(rec) }
			}
			o, err := descent.NewOptimizer(fm, d)
			if err != nil {
				return nil, err
			}
			return o.RunContext(ctx)
		},
		cost: func(res *descent.Result[*fleet.Evaluation]) float64 { return res.Eval.U },
		plan: func(res *descent.Result[*fleet.Evaluation]) (*Plan, error) {
			return fleetPlanFromResult(eng, sensors, responsibility, res)
		},
	})
}

// OptimizeFleetBest runs `restarts` independent joint optimizations with
// seeds split exactly as OptimizeBest does — the fleet counterpart, so
// fleet jobs shard restart-by-restart under the same protocol.
func OptimizeFleetBest(scn Scenario, obj Objectives, opts Options, sensors int, responsibility [][]float64, restarts int) (*Plan, error) {
	return OptimizeFleetBestContext(context.Background(), scn, obj, opts, sensors, responsibility, restarts)
}

// OptimizeFleetBestContext is OptimizeFleetBest with cooperative
// cancellation; the per-restart seeds are SplitSeeds(opts.Seed, restarts),
// so running OptimizeFleetContext with seed SplitSeeds(seed, n)[r]
// reproduces restart r bit-for-bit. Restarts run as in
// OptimizeBestContext: concurrently below 24 PoIs, up to
// Options.Workers at once, with the same plan and hook events for every
// Workers value, and the same cancellation contract.
func OptimizeFleetBestContext(ctx context.Context, scn Scenario, obj Objectives, opts Options, sensors int, responsibility [][]float64, restarts int) (*Plan, error) {
	if restarts <= 0 {
		return nil, fmt.Errorf("%w: %d restarts", ErrObjectives, restarts)
	}
	return optimizeFleet(ctx, scn, obj, opts, sensors, responsibility, SplitSeeds(opts.Seed, restarts))
}

// fleetPlanFromResult converts an internal fleet result into the public
// Plan. Single-sensor-shaped fields describe sensor 0 (so legacy
// consumers — the executor, the simulators, plan persistence — keep
// working on the lead sensor) while the metrics carry the joint values.
func fleetPlanFromResult(eng *core.Planner, sensors int, responsibility [][]float64, res *descent.Result[*fleet.Evaluation]) (*Plan, error) {
	k := len(res.Ps)
	n := res.Ps[0].Rows()
	fp := &FleetPlan{
		Sensors:            k,
		TransitionMatrices: make([][][]float64, k),
		UnionShare:         append([]float64(nil), res.Eval.UnionShare...),
		MinExposure:        append([]float64(nil), res.Eval.MinExposure...),
	}
	if responsibility != nil {
		fp.Responsibility = make([][]float64, len(responsibility))
		for s, row := range responsibility {
			fp.Responsibility[s] = append([]float64(nil), row...)
		}
	} else {
		fp.Responsibility = fleet.UniformResponsibility(k, n)
	}
	for s := 0; s < k; s++ {
		rows := make([][]float64, n)
		for i := 0; i < n; i++ {
			rows[i] = res.Ps[s].Row(i)
		}
		fp.TransitionMatrices[s] = rows
	}

	// Per-sensor evaluations supply the lead sensor's stationary
	// distribution and the fleet's mean energy/entropy; the joint
	// evaluation supplies everything else.
	leadEv, err := eng.Evaluate(res.Ps[0])
	if err != nil {
		return nil, fmt.Errorf("coverage: fleet plan: %w", err)
	}
	energy, entropy := leadEv.Energy, leadEv.Entropy
	for s := 1; s < k; s++ {
		ev, err := eng.Evaluate(res.Ps[s])
		if err != nil {
			return nil, fmt.Errorf("coverage: fleet plan sensor %d: %w", s, err)
		}
		energy += ev.Energy
		entropy += ev.Entropy
	}
	energy /= float64(k)
	entropy /= float64(k)

	plan := &Plan{
		TransitionMatrix: fp.TransitionMatrices[0],
		Stationary:       append([]float64(nil), leadEv.Sol.Pi...),
		CoverageShare:    append([]float64(nil), res.Eval.UnionShare...),
		MeanExposure:     append([]float64(nil), res.Eval.MinExposure...),
		DeltaC:           res.Eval.DeltaC,
		EBar:             res.Eval.EBar,
		Cost:             res.Eval.U,
		Energy:           energy,
		Entropy:          entropy,
		Iterations:       res.Iters,
		Converged:        res.Converged,
		Fleet:            fp,
	}
	for _, rec := range res.Trace {
		plan.Trace = append(plan.Trace, TracePoint{
			Iteration: rec.Iter,
			Cost:      rec.U,
			DeltaC:    rec.DeltaC,
			EBar:      rec.EBar,
		})
	}
	return plan, nil
}

// EvaluateFleetMatrices computes the joint fleet metrics for a stack of
// user-supplied transition matrices — the fleet counterpart of
// EvaluateMatrix, used to compare replicated single-sensor schedules
// against jointly optimized ones.
func EvaluateFleetMatrices(scn Scenario, obj Objectives, ps [][][]float64, responsibility [][]float64) (*Plan, error) {
	eng, err := planner(scn, obj)
	if err != nil {
		return nil, err
	}
	if len(ps) == 0 {
		return nil, fmt.Errorf("%w: empty matrix stack", ErrObjectives)
	}
	fm, err := fleet.NewModel(eng.Model(), len(ps), responsibility)
	if err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	stack := make([]*mat.Matrix, len(ps))
	for s, rows := range ps {
		m, err := mat.NewFromRows(rows)
		if err != nil {
			return nil, fmt.Errorf("coverage: matrix %d: %w", s, err)
		}
		stack[s] = m
	}
	ev, err := fm.Evaluate(stack)
	if err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	res := &descent.Result[*fleet.Evaluation]{Ps: stack, Eval: ev}
	return fleetPlanFromResult(eng, len(ps), responsibility, res)
}
