package coverage

import (
	"context"
	"fmt"

	"repro/internal/fleet"
	"repro/internal/markov"
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
	model, err := costModel(scn, obj)
	if err != nil {
		return err
	}
	if _, err := fleet.NewModel(model, sensors, responsibility); err != nil {
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
	return optimize(ctx, scn, obj, opts, &fleetSpec{sensors, responsibility}, []uint64{opts.Seed})
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
// OptimizeBestContext: up to Options.Workers at once, with the same plan
// and hook events for every Workers value, and the same cancellation
// contract.
func OptimizeFleetBestContext(ctx context.Context, scn Scenario, obj Objectives, opts Options, sensors int, responsibility [][]float64, restarts int) (*Plan, error) {
	if restarts <= 0 {
		return nil, fmt.Errorf("%w: %d restarts", ErrObjectives, restarts)
	}
	return optimize(ctx, scn, obj, opts, &fleetSpec{sensors, responsibility}, SplitSeeds(opts.Seed, restarts))
}

// EvaluateFleetMatrices computes the joint fleet metrics for a stack of
// user-supplied transition matrices — the fleet counterpart of
// EvaluateMatrix, used to compare replicated single-sensor schedules
// against jointly optimized ones.
func EvaluateFleetMatrices(scn Scenario, obj Objectives, ps [][][]float64, responsibility [][]float64) (*Plan, error) {
	model, err := costModel(scn, obj)
	if err != nil {
		return nil, err
	}
	if len(ps) == 0 {
		return nil, fmt.Errorf("%w: empty matrix stack", ErrObjectives)
	}
	fm, err := fleet.NewModel(model, len(ps), responsibility)
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
	return planFromResult(fm, markov.MethodDense, &result{Ps: stack, Eval: ev}, true)
}
