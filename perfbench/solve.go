package main

import (
	"fmt"
	"time"

	"repro/coverage"
	"repro/internal/descent"
)

// problem is one optimization the workloads run: a scenario, objectives
// and the options it is solved with, plus the Metropolis baseline it is
// compared against.
type problem struct {
	name     string
	scn      coverage.Scenario
	obj      coverage.Objectives
	opts     coverage.Options
	restarts int
	sensors  int // ≥ 2 for a fleet problem
	resp     [][]float64

	baseline     [][]float64 // floored MetropolisBaseline(scn)
	baselineCost float64     // its cost (K copies for a fleet)
}

// flooredBaseline is the scenario's Metropolis baseline with every
// entry lifted to the descent's probability floor and the rows
// renormalized — the matrix a descent warm-started from the baseline
// begins at. Unfloored, the baseline's exact zeros put its barrier cost
// at +Inf.
func flooredBaseline(scn coverage.Scenario) ([][]float64, error) {
	base, err := coverage.MetropolisBaseline(scn)
	if err != nil {
		return nil, err
	}
	for _, row := range base {
		var sum float64
		for j := range row {
			row[j] = max(row[j], descent.DefaultMinProb)
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return base, nil
}

func (p *problem) fleet() bool { return p.sensors >= 2 }

// withBaseline computes the floored Metropolis baseline and its cost.
func (p *problem) withBaseline() error {
	base, err := flooredBaseline(p.scn)
	if err != nil {
		return fmt.Errorf("%s: baseline: %w", p.name, err)
	}
	p.baseline = base
	var plan *coverage.Plan
	if p.fleet() {
		stack := make([][][]float64, p.sensors)
		for s := range stack {
			stack[s] = base
		}
		plan, err = coverage.EvaluateFleetMatrices(p.scn, p.obj, stack, p.resp)
	} else {
		plan, err = coverage.EvaluateMatrix(p.scn, p.obj, base)
	}
	if err != nil {
		return fmt.Errorf("%s: baseline cost: %w", p.name, err)
	}
	p.baselineCost = plan.Cost
	return nil
}

// iterStats summarizes the OnIteration events of one solve.
//
// The perturbed descent sends no event for an iteration whose zero step
// has no feasible escape step, although that iteration still pays for a
// gradient and a line search. iters therefore counts each restart's
// iterations as the highest IterationEvent.Iteration seen, which also
// advances over the skipped ones; events counts the events themselves,
// and probes and accepted are read from those. A stall streak that
// ends a restart sends no event at all; solve counts it for a
// single-restart solve that ran its whole budget, and leaves it
// uncounted elsewhere.
type iterStats struct {
	iters, events, probes, accepted int
	// restart and top are the restart of the last event and the
	// highest iteration seen in it.
	restart, top int
	// gaps holds the µs per iteration between successive events of one
	// restart; filled only by timed solves.
	gaps []float64
}

func (s *iterStats) addEvent(ev coverage.IterationEvent) {
	if s.events == 0 || ev.Restart != s.restart {
		s.restart, s.top = ev.Restart, 0
	}
	s.iters += ev.Iteration - s.top
	s.top = ev.Iteration
	s.events++
	s.probes += ev.Probes
	if ev.Accepted {
		s.accepted++
	}
}

// solve runs one problem to its plan with the given descent worker
// count (0 = GOMAXPROCS). An untimed solve installs a counter-only
// OnIteration hook that reads no clock; a timed one also records the
// gap between successive iterations and, when tr is non-nil, a span per
// restart and per iteration under the parent span. The returned
// duration covers the optimizer call only.
func solve(p *problem, workers int, timed bool, tr *tracer, parent int64) (*coverage.Plan, iterStats, time.Duration, error) {
	var st iterStats
	opts := p.opts
	opts.Workers = workers
	var (
		t0          time.Time
		last        time.Time
		restart     = -1
		restartSpan int64
		restartT0   time.Time
	)
	closeRestart := func() {
		if restart >= 0 {
			tr.record(restartSpan, parent, "descent.restart", p.name, restartT0, last)
		}
	}
	if timed {
		opts.OnIteration = func(ev coverage.IterationEvent) {
			now := time.Now()
			if ev.Restart != restart {
				closeRestart()
				restart, restartSpan, restartT0 = ev.Restart, tr.id(), last
			} else {
				// The gap spans every iteration since the last event.
				n := float64(ev.Iteration - st.top)
				st.gaps = append(st.gaps, float64(now.Sub(last).Nanoseconds())/1e3/n)
			}
			st.addEvent(ev)
			tr.add(restartSpan, "descent.iteration", p.name, last, now)
			last = now
		}
	} else {
		opts.OnIteration = st.addEvent
	}
	var (
		plan *coverage.Plan
		err  error
	)
	t0 = time.Now()
	last = t0
	if p.fleet() {
		plan, err = coverage.OptimizeFleetBest(p.scn, p.obj, opts, p.sensors, p.resp, p.restarts)
	} else {
		plan, err = coverage.OptimizeBest(p.scn, p.obj, opts, p.restarts)
	}
	d := time.Since(t0)
	if timed {
		closeRestart()
	}
	if err != nil {
		return nil, st, d, fmt.Errorf("%s: %w", p.name, err)
	}
	if p.restarts == 1 && !plan.Converged && opts.MaxIters > 0 {
		st.iters = max(st.iters, opts.MaxIters)
	}
	return plan, st, d, nil
}
