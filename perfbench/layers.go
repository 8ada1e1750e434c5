package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/coverage"
	"repro/internal/cost"
	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/route"
	"repro/internal/topology"
)

// costModel rebuilds the cost model coverage builds internally for a
// problem. The Scenario → topology and Objectives → weights lowerings
// are unexported in coverage, so they are restated here with the same
// defaults; replay.problem checks the rebuilt model against the cost
// of every plan it replays.
func costModel(p *problem) (*cost.Model, error) {
	scn := p.scn
	pois := make([]topology.PoI, len(scn.PoIs))
	for i, q := range scn.PoIs {
		pause := q.Pause
		if pause == 0 {
			pause = coverage.DefaultPause
		}
		pois[i] = topology.PoI{Pos: geom.Point{X: q.X, Y: q.Y}, Pause: pause}
	}
	cfg := topology.Config{
		Name: scn.Name, PoIs: pois, Target: scn.Target,
		Range: scn.Range, Speed: scn.Speed,
	}
	if cfg.Range == 0 {
		cfg.Range = coverage.DefaultRange
	}
	if cfg.Speed == 0 {
		cfg.Speed = coverage.DefaultSpeed
	}
	if len(scn.Obstacles) > 0 {
		rects := make([]route.Rect, len(scn.Obstacles))
		for i, o := range scn.Obstacles {
			rects[i] = route.Rect{MinX: o.MinX, MinY: o.MinY, MaxX: o.MaxX, MaxY: o.MaxY}
		}
		planner, err := route.New(rects, 0)
		if err != nil {
			return nil, err
		}
		cfg.Router = planner
	}
	top, err := topology.New(cfg)
	if err != nil {
		return nil, err
	}
	o, m := p.obj, len(pois)
	w := cost.Uniform(m, o.Alpha, o.Beta)
	if o.PerPoIAlpha != nil {
		w.Alpha = append([]float64(nil), o.PerPoIAlpha...)
	}
	if o.PerPoIBeta != nil {
		w.Beta = append([]float64(nil), o.PerPoIBeta...)
	}
	w.EnergyWeight, w.EnergyTarget, w.EntropyWeight = o.EnergyWeight, o.EnergyTarget, o.EntropyWeight
	if o.Epsilon != 0 {
		w.Epsilon = o.Epsilon
	}
	return cost.NewModel(top, w)
}

// Replay timing: each measured call repeats until replayMin has passed
// and at least replayCalls times; the per-call mean is kept.
const (
	replayMin   = 2 * time.Millisecond
	replayCalls = 3
	allocCalls  = 50
)

// timeCall returns fn's mean wall time per call in µs.
func timeCall(fn func() error) (float64, error) {
	n := 0
	t0 := time.Now()
	for n < replayCalls || time.Since(t0) < replayMin {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n), nil
}

// allocsPerCall counts heap allocations per call of fn.
func allocsPerCall(fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocCalls; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / allocCalls, nil
}

// replay re-times the layer calls a workload's optimizations make, on
// the workload's own matrices, one layer at a time. Every field holds
// one sample per (problem, matrix); the reported metric is the median.
type replay struct {
	r  *run
	tr *tracer

	evalUs, gradUs, evalAllocs  []float64
	solveUs, solveSparseUs      []float64
	luUs, gflops                []float64
	fleetGradUs                 []float64
	writeUs, readUs, validateMs []float64
}

// modelCost is one problem's serial model time at its returned plan,
// which descent.model_share sets against the measured iteration time.
type modelCost struct{ evalUs, gradUs float64 }

// problem replays every layer call for p at its start matrix (the
// Metropolis baseline) and at its returned plan, under the span parent.
func (rp *replay) problem(p *problem, plan *coverage.Plan, parent int64) (modelCost, error) {
	var mc modelCost
	model, err := costModel(p)
	if err != nil {
		return mc, fmt.Errorf("%s: model: %w", p.name, err)
	}
	m := len(p.scn.PoIs)
	method := markov.MethodDense
	if p.opts.Solver == "sparse" {
		method = markov.MethodSparse
	}
	ws := model.NewWorkspace()
	ws.SetSolver(method)
	dense, sparse := markov.NewSolver(m), markov.NewSolver(m)
	sparse.SetMethod(markov.MethodSparse)
	lu := mat.NewLU(m)
	a, prod := mat.New(m, m), mat.New(m, m)
	x, b := make([]float64, m), make([]float64, m)
	for i := range b {
		b[i] = 1
	}

	// timed runs fn as one replayed layer call and records its span.
	timed := func(name string, dst *[]float64, fn func() error) (float64, error) {
		t0 := time.Now()
		us, err := timeCall(fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %s: %w", p.name, name, err)
		}
		rp.tr.add(parent, name, p.name, t0, time.Now())
		*dst = append(*dst, us)
		return us, nil
	}
	for k, rows := range [][][]float64{p.baseline, plan.TransitionMatrix} {
		pm, err := mat.NewFromRows(rows)
		if err != nil {
			return mc, err
		}
		if k == 1 && !p.fleet() {
			ev, err := model.EvaluateIn(ws, pm)
			if err != nil {
				return mc, fmt.Errorf("%s: model check: %w", p.name, err)
			}
			rp.sameModel(p, plan, ev.U)
		}
		evalUs, err := timed("cost.evaluate", &rp.evalUs, func() error {
			_, err := model.EvaluateIn(ws, pm)
			return err
		})
		if err != nil {
			return mc, err
		}
		gradUs, err := timed("cost.gradient", &rp.gradUs, func() error {
			_, _, err := model.GradientIn(ws, pm)
			return err
		})
		if err != nil {
			return mc, err
		}
		if k == 1 {
			mc = modelCost{evalUs: evalUs, gradUs: gradUs}
		}
		allocs, err := allocsPerCall(func() error {
			_, err := model.EvaluateIn(ws, pm)
			return err
		})
		if err != nil {
			return mc, err
		}
		rp.evalAllocs = append(rp.evalAllocs, allocs)
		if _, err := timed("markov.solve", &rp.solveUs, func() error {
			_, err := dense.Solve(pm)
			return err
		}); err != nil {
			return mc, err
		}
		if _, err := timed("markov.solve_sparse", &rp.solveSparseUs, func() error {
			_, err := sparse.Solve(pm)
			return err
		}); err != nil {
			return mc, err
		}
		// The fundamental-matrix system I − P + 1·(1/M)ᵀ is nonsingular
		// for an ergodic chain.
		ad, pd := a.Data(), pm.Data()
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				v := -pd[i*m+j] + 1/float64(m)
				if i == j {
					v++
				}
				ad[i*m+j] = v
			}
		}
		if _, err := timed("mat.lu", &rp.luUs, func() error {
			if err := lu.Refactor(a); err != nil {
				return err
			}
			return lu.SolveVecTo(x, b)
		}); err != nil {
			return mc, err
		}
		var mulUs []float64
		if _, err := timed("mat.mul", &mulUs, func() error { return mat.MulTo(prod, pm, pm) }); err != nil {
			return mc, err
		}
		// Computed flops of a dense M×M product (2M³), not counted ones.
		rp.gflops = append(rp.gflops, 2*float64(m*m*m)/(mulUs[0]*1e3))
	}

	if p.fleet() && plan.Fleet != nil {
		fm, err := fleet.NewModel(model, p.sensors, p.resp)
		if err != nil {
			return mc, fmt.Errorf("%s: fleet model: %w", p.name, err)
		}
		ps := make([]*mat.Matrix, p.sensors)
		for s, rows := range plan.Fleet.TransitionMatrices {
			if ps[s], err = mat.NewFromRows(rows); err != nil {
				return mc, err
			}
		}
		ev, err := fm.Evaluate(ps)
		if err != nil {
			return mc, fmt.Errorf("%s: fleet model check: %w", p.name, err)
		}
		rp.sameModel(p, plan, ev.U)
		if _, err := timed("fleet.gradient", &rp.fleetGradUs, func() error {
			_, _, err := fm.Gradient(ps)
			return err
		}); err != nil {
			return mc, err
		}
	}

	var buf bytes.Buffer
	if _, err := timed("persist.write_plan", &rp.writeUs, func() error {
		buf.Reset()
		return coverage.WritePlan(&buf, plan)
	}); err != nil {
		return mc, err
	}
	blob := buf.Bytes()
	if _, err := timed("persist.read_plan", &rp.readUs, func() error {
		_, err := coverage.ReadPlan(bytes.NewReader(blob))
		return err
	}); err != nil {
		return mc, err
	}
	var validateUs []float64
	if _, err := timed("coverage.validate", &validateUs, func() error {
		return coverage.Validate(p.scn, p.obj)
	}); err != nil {
		return mc, err
	}
	rp.validateMs = append(rp.validateMs, validateUs[0]/1e3)
	return mc, nil
}

// sameModel flags a rebuilt model whose cost u at the returned plan is
// not the plan's own cost: the replays would then time another model
// than the one the optimizer used.
func (rp *replay) sameModel(p *problem, plan *coverage.Plan, u float64) {
	if math.Abs(u-plan.Cost) > reevalTol*math.Max(1, math.Abs(plan.Cost)) {
		rp.r.problem("%s: rebuilt cost model gives %v at the returned plan, which costs %v", p.name, u, plan.Cost)
	}
}

// report sets the replayed layer metrics.
func (rp *replay) report(r *run) {
	r.setLayer("cost.evaluate_us", "us", median(rp.evalUs))
	r.setLayer("cost.gradient_us", "us", median(rp.gradUs))
	r.setLayer("cost.evaluate_allocs", "allocs", median(rp.evalAllocs))
	r.setLayer("markov.solve_us", "us", median(rp.solveUs))
	r.setLayer("markov.solve_sparse_us", "us", median(rp.solveSparseUs))
	r.setLayer("mat.lu_us", "us", median(rp.luUs))
	r.setLayer("mat.matmul_gflops", "GFLOP/s", median(rp.gflops))
	r.setLayer("fleet.gradient_us", "us", median(rp.fleetGradUs))
	r.setLayer("persist.write_plan_us", "us", median(rp.writeUs))
	r.setLayer("persist.read_plan_us", "us", median(rp.readUs))
	r.setLayer("coverage.validate_ms", "ms", median(rp.validateMs))
}
