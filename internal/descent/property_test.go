package descent

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/mcmc"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestPipelineOnRandomTopologies is the end-to-end robustness property:
// for arbitrary valid workloads (random layouts, pauses, skewed targets,
// random objective weights), the full pipeline — optimize, evaluate, the
// Metropolis–Hastings baseline, simulate — runs without error and
// produces internally consistent results.
func TestPipelineOnRandomTopologies(t *testing.T) {
	src := rng.New(4242)
	for trial := 0; trial < 12; trial++ {
		top, err := topology.Random(src, topology.RandomConfig{
			M:          2 + src.IntN(5),
			Width:      7,
			Height:     7,
			MinPause:   0.5,
			MaxPause:   3,
			SkewTarget: trial%2 == 0,
		})
		if err != nil {
			t.Fatalf("trial %d: Random: %v", trial, err)
		}
		alpha := src.Uniform(0, 2)
		beta := math.Pow(10, src.Uniform(-6, 0))
		model, err := cost.NewModel(top, cost.Uniform(top.M(), alpha, beta))
		if err != nil {
			t.Fatalf("trial %d: NewModel: %v", trial, err)
		}
		opt, err := newSingle(model, Options{
			Variant:  Perturbed,
			MaxIters: 120,
			Seed:     src.Uint64(),
		})
		if err != nil {
			t.Fatalf("trial %d: newSingle: %v", trial, err)
		}
		res, err := opt.Run()
		if err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		// Result is a proper interior stochastic matrix.
		for i, s := range mat.RowSums(res.P) {
			if math.Abs(s-1) > 1e-6 {
				t.Fatalf("trial %d: row %d sums to %v", trial, i, s)
			}
		}
		// Best cost beats (or matches) the starting uniform/random point
		// and the evaluation breakdown is consistent.
		ev := res.Eval
		if math.Abs(ev.U-(ev.Objective+ev.Penalty)) > 1e-9*(1+math.Abs(ev.U)) {
			t.Fatalf("trial %d: U decomposition off", trial)
		}
		sev, err := model.Evaluate(res.P)
		if err != nil {
			t.Fatalf("trial %d: Evaluate: %v", trial, err)
		}
		if sev.U != ev.U {
			t.Fatalf("trial %d: evaluated U %v, optimizer's best %v", trial, sev.U, ev.U)
		}
		// Short simulation agrees with the analytic coverage to loose
		// tolerance.
		runs, err := sim.RunMany(sim.Config{
			Topology: top, P: res.P, Steps: 60000, Seed: src.Uint64(), TimeModel: sim.UnitStep,
		}, 1)
		if err != nil {
			t.Fatalf("trial %d: Simulate: %v", trial, err)
		}
		for i := range sev.CBar {
			if math.Abs(runs[0].CoverageShare[i]-sev.CBar[i]) > 0.03 {
				t.Fatalf("trial %d PoI %d: simulated %v vs analytic %v",
					trial, i, runs[0].CoverageShare[i], sev.CBar[i])
			}
		}
		// Baseline chain solves and evaluates.
		base, err := mcmc.MetropolisHastings(top.Target())
		if err != nil {
			t.Fatalf("trial %d: Baseline: %v", trial, err)
		}
		if _, err := model.Evaluate(base); err != nil {
			// Exact-zero diagonals in the MH chain can push the barrier
			// to +Inf but must not produce an error.
			t.Fatalf("trial %d: Evaluate baseline: %v", trial, err)
		}
	}
}

// TestOptimizeExtremeWeights drives the optimizer at the numerical edges
// of the objective space.
func TestOptimizeExtremeWeights(t *testing.T) {
	top := topology.Topology2()
	cases := []struct {
		name        string
		alpha, beta float64
	}{
		{"huge alpha", 1e6, 0},
		{"tiny beta", 0, 1e-9},
		{"huge beta", 0, 1e6},
		{"mixed extreme", 1e6, 1e-9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model, err := cost.NewModel(top, cost.Uniform(top.M(), tc.alpha, tc.beta))
			if err != nil {
				t.Fatalf("NewModel: %v", err)
			}
			opt, err := newSingle(model, Options{
				Variant:  Perturbed,
				MaxIters: 60,
				Seed:     3,
			})
			if err != nil {
				t.Fatalf("newSingle: %v", err)
			}
			res, err := opt.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if math.IsNaN(res.Eval.U) || math.IsInf(res.Eval.U, 0) {
				t.Errorf("U = %v", res.Eval.U)
			}
		})
	}
}

// TestOptimizeExtremePauseAsymmetry: topologies where one PoI's pause
// dwarfs the others stress the timing tables.
func TestOptimizeExtremePauseAsymmetry(t *testing.T) {
	top, err := topology.New(topology.Config{
		Name: "asym",
		PoIs: []topology.PoI{
			{Pos: pt(0.5, 0.5), Pause: 100},
			{Pos: pt(1.5, 0.5), Pause: 0.01},
			{Pos: pt(2.5, 0.5), Pause: 1},
		},
		Target: []float64{0.8, 0.1, 0.1},
		Range:  0.25,
		Speed:  1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	model, err := cost.NewModel(top, cost.Uniform(3, 1, 1e-4))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	opt, err := newSingle(model, Options{Variant: Perturbed, MaxIters: 150, Seed: 5})
	if err != nil {
		t.Fatalf("newSingle: %v", err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ev, err := model.Evaluate(res.P)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// The long-pause PoI should end up with the dominant coverage share.
	best := 0
	for i, c := range ev.CBar {
		if c > ev.CBar[best] {
			best = i
		}
	}
	if best != 0 {
		t.Errorf("dominant coverage at PoI %d, want 0 (pause 100): %v", best, ev.CBar)
	}
}

// pt is a test shorthand.
func pt(x, y float64) geom.Point {
	return geom.Point{X: x, Y: y}
}
