// Package core is the paper's primary contribution assembled into one
// planning engine: given a physical topology (package topology) and
// multi-objective weights (package cost), a Planner searches the space of
// all Markov transition matrices by projected stochastic steepest descent
// (package descent), evaluates candidate schedules in closed form through
// the chain machinery (package markov), compares them against the
// Metropolis–Hastings baseline (package mcmc), and validates them by
// driving the walk simulator (package sim).
//
// The public repro/coverage package is a thin, conversion-only facade
// over this engine; experiment harnesses and commands that live inside
// the module use the engine directly.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cost"
	"repro/internal/descent"
	"repro/internal/mat"
	"repro/internal/mcmc"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ErrPlanner indicates an invalid Planner configuration or argument.
var ErrPlanner = errors.New("core: invalid planner input")

// Planner binds a topology and an objective into a reusable planning
// engine. A Planner is safe for sequential reuse across many optimization
// and simulation calls; it is not safe for concurrent use.
type Planner struct {
	top   *topology.Topology
	model *cost.Model
}

// NewPlanner validates the weights against the topology and builds the
// engine.
func NewPlanner(top *topology.Topology, w cost.Weights) (*Planner, error) {
	if top == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrPlanner)
	}
	model, err := cost.NewModel(top, w)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Planner{top: top, model: model}, nil
}

// Topology returns the planner's topology.
func (p *Planner) Topology() *topology.Topology { return p.top }

// Model returns the planner's cost model.
func (p *Planner) Model() *cost.Model { return p.model }

// Optimize runs the configured steepest-descent search and returns the
// best schedule found.
func (p *Planner) Optimize(opts descent.Options) (*descent.Result[*cost.Evaluation], error) {
	return p.OptimizeContext(context.Background(), opts)
}

// OptimizeContext is Optimize with cooperative cancellation. On
// cancellation it returns the best-so-far result (nil when no iteration
// completed) together with an error wrapping ctx.Err().
func (p *Planner) OptimizeContext(ctx context.Context, opts descent.Options) (*descent.Result[*cost.Evaluation], error) {
	opt, err := descent.New(p.model, opts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res, err := opt.RunContext(ctx)
	if err != nil {
		if res != nil {
			// Cancelled mid-run: pass the partial result through so the
			// caller can keep the best-so-far schedule.
			return res, fmt.Errorf("core: optimize: %w", err)
		}
		return nil, fmt.Errorf("core: optimize: %w", err)
	}
	return res, nil
}

// OptimizeMany runs n independent searches with split seeds.
func (p *Planner) OptimizeMany(opts descent.Options, n int) ([]*descent.Result[*cost.Evaluation], error) {
	return p.OptimizeManyContext(context.Background(), opts, n)
}

// OptimizeManyContext is OptimizeMany with cooperative cancellation; the
// cancellation contract follows descent.RunManyParallelContext (partial
// result slice plus an error wrapping ctx.Err()).
func (p *Planner) OptimizeManyContext(ctx context.Context, opts descent.Options, n int) ([]*descent.Result[*cost.Evaluation], error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d runs", ErrPlanner, n)
	}
	return descent.RunManyContext(ctx, p.model, opts, n)
}

// Evaluate computes the closed-form cost breakdown of a transition
// matrix under the planner's objective.
func (p *Planner) Evaluate(m *mat.Matrix) (*cost.Evaluation, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil matrix", ErrPlanner)
	}
	ev, err := p.model.Evaluate(m)
	if err != nil {
		return nil, fmt.Errorf("core: evaluate: %w", err)
	}
	return ev, nil
}

// Baseline returns the Metropolis–Hastings chain whose stationary
// distribution equals the topology's target allocation — the
// coverage-only comparison point.
func (p *Planner) Baseline() (*mat.Matrix, error) {
	m, err := mcmc.MetropolisHastings(p.top.Target())
	if err != nil {
		return nil, fmt.Errorf("core: baseline: %w", err)
	}
	return m, nil
}

// SimulateOptions configures a validation simulation.
type SimulateOptions struct {
	// Steps is the number of Markov transitions per replication
	// (default 100000).
	Steps int
	// Seed drives the walk.
	Seed uint64
	// TimeModel selects the exposure convention (default sim.UnitStep).
	TimeModel sim.TimeModel
	// Replications repeats the walk with split seeds (default 1).
	Replications int
}

// Simulate drives the walk simulator with the given schedule and returns
// one Metrics per replication.
func (p *Planner) Simulate(m *mat.Matrix, opts SimulateOptions) ([]*sim.Metrics, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil matrix", ErrPlanner)
	}
	if opts.Steps == 0 {
		opts.Steps = 100000
	}
	if opts.Replications == 0 {
		opts.Replications = 1
	}
	if opts.TimeModel == 0 {
		opts.TimeModel = sim.UnitStep
	}
	runs, err := sim.RunMany(sim.Config{
		Topology:  p.top,
		P:         m,
		Steps:     opts.Steps,
		Seed:      opts.Seed,
		TimeModel: opts.TimeModel,
	}, opts.Replications)
	if err != nil {
		return nil, fmt.Errorf("core: simulate: %w", err)
	}
	return runs, nil
}
