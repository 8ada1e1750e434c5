package descent

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/topology"
)

func model(t *testing.T, top *topology.Topology, alpha, beta float64) *cost.Model {
	t.Helper()
	m, err := cost.NewModel(top, cost.Uniform(top.M(), alpha, beta))
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

func TestOptionsValidation(t *testing.T) {
	m := model(t, topology.Topology2(), 1, 1)
	cases := []struct {
		name string
		opts Options
	}{
		{"missing variant", Options{}},
		{"unknown variant", Options{Variant: Variant(9)}},
		{"negative iters", Options{Variant: Basic, MaxIters: -1}},
		{"negative step", Options{Variant: Basic, FixedStep: -1}},
		{"minprob too big", Options{Variant: Basic, MinProb: 0.6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(m, tc.opts); !errors.Is(err, ErrOptions) {
				t.Errorf("err = %v, want ErrOptions", err)
			}
		})
	}
}

func TestVariantString(t *testing.T) {
	if Basic.String() != "basic" || Adaptive.String() != "adaptive" || Perturbed.String() != "perturbed" {
		t.Error("variant names wrong")
	}
	if Variant(42).String() == "" {
		t.Error("unknown variant name empty")
	}
}

func TestUniformInit(t *testing.T) {
	p := UniformInit(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if p.At(i, j) != 0.25 {
				t.Fatalf("p[%d][%d] = %v", i, j, p.At(i, j))
			}
		}
	}
}

func TestRandomInitIsStochasticAndFloored(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 50; trial++ {
		m := 2 + src.IntN(8)
		floor := 1e-6
		p := RandomInit(src, m, floor)
		for i, s := range mat.RowSums(p) {
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("trial %d: row %d sums to %v", trial, i, s)
			}
		}
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if p.At(i, j) < floor/2 {
					t.Fatalf("trial %d: entry below floor: %v", trial, p.At(i, j))
				}
			}
		}
	}
}

func TestMaxFeasibleStep(t *testing.T) {
	p, _ := mat.NewFromRows([][]float64{{0.5, 0.5}, {0.5, 0.5}})
	dir, _ := mat.NewFromRows([][]float64{{0.1, -0.1}, {-0.1, 0.1}})
	// Entry (0,0) hits 1-floor at δ = (0.5 - floor)/0.1 ≈ 5.
	got := maxFeasibleStep1(p, dir, 0)
	if math.Abs(got-5) > 1e-9 {
		t.Errorf("bound = %v, want 5", got)
	}
	// With floor 0.1, room shrinks: (1 - 0.1 - 0.5)/0.1 = 4.
	got = maxFeasibleStep1(p, dir, 0.1)
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("bound with floor = %v, want 4", got)
	}
	// Zero direction has no finite bound; report 0.
	if got := maxFeasibleStep1(p, mat.New(2, 2), 0); got != 0 {
		t.Errorf("zero-direction bound = %v, want 0", got)
	}
}

func TestMaxFeasibleStepAtBoundary(t *testing.T) {
	// An entry already below the floor gives a negative room; the bound
	// must clamp to 0, not go negative.
	p, _ := mat.NewFromRows([][]float64{{0.0001, 0.9999}, {0.5, 0.5}})
	dir, _ := mat.NewFromRows([][]float64{{-1, 1}, {0, 0}})
	if got := maxFeasibleStep1(p, dir, 0.01); got != 0 {
		t.Errorf("bound = %v, want 0", got)
	}
}

func TestBasicDecreasesCost(t *testing.T) {
	m := model(t, topology.Topology2(), 1, 0)
	opt, err := New(m, Options{
		Variant:     Basic,
		MaxIters:    300,
		FixedStep:   1e-4, // larger than the paper's to converge in test time
		RecordTrace: true,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	first := res.Trace[0].U
	last := res.Trace[len(res.Trace)-1].U
	if last >= first {
		t.Errorf("U did not decrease: first %v, last %v", first, last)
	}
	// The basic variant should monotonically (weakly) improve the best-so-far.
	if res.Eval.U > first {
		t.Errorf("best U %v worse than first %v", res.Eval.U, first)
	}
}

func TestBasicTraceMonotoneBest(t *testing.T) {
	m := model(t, topology.Topology3(), 1, 1)
	opt, err := New(m, Options{Variant: Basic, MaxIters: 100, FixedStep: 1e-4, RecordTrace: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	best := math.Inf(1)
	for _, rec := range res.Trace {
		if rec.U < best {
			best = rec.U
		}
	}
	if math.Abs(best-res.Eval.U) > 1e-12 {
		t.Errorf("result best %v != trace best %v", res.Eval.U, best)
	}
}

func TestAdaptiveConvergesAndStops(t *testing.T) {
	// Exposure-only objective on Topology 1: the setting in which the
	// paper reports the adaptive variant stalling at local optima.
	m := model(t, topology.Topology1(), 0, 1)
	opt, err := New(m, Options{
		Variant: Adaptive, MaxIters: 4000, Seed: 7,
		Tolerance: 1e-4, StallIters: 50, RecordTrace: true,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Error("adaptive did not converge within budget")
	}
	if !res.LocalOptimum {
		t.Error("adaptive termination should flag a local optimum")
	}
	if res.Iters >= 4000 {
		t.Errorf("expected early stop, ran %d iterations", res.Iters)
	}
	// Line-searched descent should improve on the random start.
	if len(res.Trace) >= 2 && res.Eval.U >= res.Trace[0].U {
		t.Errorf("no improvement: best %v, first %v", res.Eval.U, res.Trace[0].U)
	}
}

func TestAdaptiveFasterThanBasic(t *testing.T) {
	// With the same iteration budget, the line-searched variant must reach
	// a cost no worse than the fixed-step variant from the same start.
	top := topology.Topology2()
	m := model(t, top, 1, 0)
	init := UniformInit(top.M())
	iters := 50

	basicOpt, err := New(m, Options{Variant: Basic, MaxIters: iters, Initial: []*mat.Matrix{init}})
	if err != nil {
		t.Fatalf("New basic: %v", err)
	}
	basicRes, err := basicOpt.Run()
	if err != nil {
		t.Fatalf("basic Run: %v", err)
	}
	adaptOpt, err := New(m, Options{Variant: Adaptive, MaxIters: iters, Initial: []*mat.Matrix{init}})
	if err != nil {
		t.Fatalf("New adaptive: %v", err)
	}
	adaptRes, err := adaptOpt.Run()
	if err != nil {
		t.Fatalf("adaptive Run: %v", err)
	}
	if adaptRes.Eval.U > basicRes.Eval.U+1e-12 {
		t.Errorf("adaptive U %v worse than basic U %v after %d iters",
			adaptRes.Eval.U, basicRes.Eval.U, iters)
	}
}

func TestResultMatrixIsStochastic(t *testing.T) {
	for _, variant := range []Variant{Basic, Adaptive, Perturbed} {
		t.Run(variant.String(), func(t *testing.T) {
			m := model(t, topology.Topology2(), 1, 1)
			opt, err := New(m, Options{Variant: variant, MaxIters: 60, Seed: 11, FixedStep: 1e-4})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, err := opt.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for i, s := range mat.RowSums(res.P) {
				if math.Abs(s-1) > 1e-6 {
					t.Errorf("row %d sums to %v", i, s)
				}
			}
			n := res.P.Rows()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := res.P.At(i, j)
					if v <= 0 || v >= 1 {
						t.Errorf("p[%d][%d] = %v outside (0,1)", i, j, v)
					}
				}
			}
		})
	}
}

func TestPerturbedImprovesOrMatchesAdaptive(t *testing.T) {
	// Across a set of random starts, the perturbed variant's mean best
	// cost must not be worse than the adaptive variant's (it escapes local
	// optima). This is the paper's Table III claim in miniature.
	top := topology.Topology1()
	m := model(t, top, 0, 1)

	const runs = 6
	adaptive, err := RunMany(m, Options{Variant: Adaptive, MaxIters: 150, Seed: 42}, runs)
	if err != nil {
		t.Fatalf("RunMany adaptive: %v", err)
	}
	perturbed, err := RunMany(m, Options{Variant: Perturbed, MaxIters: 150, Seed: 42, StallIters: 60}, runs)
	if err != nil {
		t.Fatalf("RunMany perturbed: %v", err)
	}
	mean := func(rs []*singleResult) float64 {
		var s float64
		for _, r := range rs {
			s += r.Eval.U
		}
		return s / float64(len(rs))
	}
	ma, mp := mean(adaptive), mean(perturbed)
	if mp > ma*1.05+1e-12 {
		t.Errorf("perturbed mean U %v worse than adaptive %v", mp, ma)
	}
}

// TestPerturbedAnnealingBranches exercises the simulated-annealing
// acceptance machinery by starting at a near-optimal point with very
// aggressive noise: improving line searches become rare, so the
// random-step fallback and accept/reject paths run. Both a hot (always
// accept) and a cold (essentially never accept) schedule must terminate
// and return a valid matrix.
func TestPerturbedAnnealingBranches(t *testing.T) {
	m := model(t, topology.Topology2(), 0, 1)
	// Converge once to land near an optimum.
	seedOpt, err := New(m, Options{Variant: Perturbed, MaxIters: 400, Seed: 13})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	seedRes, err := seedOpt.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, k := range []float64{1e9, 1e-9} {
		opt, err := New(m, Options{
			Variant:     Perturbed,
			MaxIters:    150,
			Seed:        17,
			Initial:     seedRes.Ps,
			NoiseStdDev: 50, // direction is almost pure noise
			AnnealK:     k,
			StallIters:  1000,
		})
		if err != nil {
			t.Fatalf("New(k=%g): %v", k, err)
		}
		res, err := opt.Run()
		if err != nil {
			t.Fatalf("Run(k=%g): %v", k, err)
		}
		// Best-so-far tracking must never lose to the warm start.
		if res.Eval.U > seedRes.Eval.U*1.0001 {
			t.Errorf("k=%g: best %v worse than warm start %v", k, res.Eval.U, seedRes.Eval.U)
		}
		for i, s := range mat.RowSums(res.P) {
			if math.Abs(s-1) > 1e-6 {
				t.Errorf("k=%g: row %d sums to %v", k, i, s)
			}
		}
	}
}

func TestPerturbedDeterministicForSeed(t *testing.T) {
	m := model(t, topology.Topology2(), 1, 1)
	run := func() *singleResult {
		opt, err := New(m, Options{Variant: Perturbed, MaxIters: 40, Seed: 99, StallIters: 100})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := opt.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	r1 := run()
	r2 := run()
	if r1.Eval.U != r2.Eval.U {
		t.Errorf("same seed produced different costs: %v vs %v", r1.Eval.U, r2.Eval.U)
	}
	if mat.MaxAbsDiff(r1.P, r2.P) > 0 {
		t.Error("same seed produced different matrices")
	}
}

func TestAcceptanceCounters(t *testing.T) {
	m := model(t, topology.Topology2(), 1, 1)
	opt, err := New(m, Options{Variant: Basic, MaxIters: 20, FixedStep: 1e-4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Accepted != res.Iters {
		t.Errorf("basic: accepted %d of %d iterations", res.Accepted, res.Iters)
	}
	if res.Rejected != 0 {
		t.Errorf("basic: rejected %d", res.Rejected)
	}
	// Perturbed with brutal noise at a near-optimum sees rejections under
	// a cold schedule.
	warm, err := New(m, Options{Variant: Perturbed, MaxIters: 300, Seed: 9})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	warmRes, err := warm.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cold, err := New(m, Options{
		Variant: Perturbed, MaxIters: 100, Seed: 10,
		Initial: warmRes.Ps, NoiseStdDev: 50, AnnealK: 1e-9, StallIters: 1000,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	coldRes, err := cold.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if coldRes.Accepted+coldRes.Rejected != coldRes.Iters {
		t.Errorf("perturbed: %d accepted + %d rejected != %d iterations",
			coldRes.Accepted, coldRes.Rejected, coldRes.Iters)
	}
}

func TestRunManyIndependentSeeds(t *testing.T) {
	m := model(t, topology.Topology2(), 1, 0)
	results, err := RunMany(m, Options{Variant: Adaptive, MaxIters: 80, Seed: 5}, 4)
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	// Random inits should differ across runs: at least one pair of final
	// matrices differs (they may still converge to the same optimum, so
	// compare the initial trace costs instead via distinct U trajectories).
	distinct := false
	for i := 1; i < len(results); i++ {
		if mat.MaxAbsDiff(results[0].P, results[i].P) > 1e-12 ||
			math.Abs(results[0].Eval.U-results[i].Eval.U) > 1e-15 {
			distinct = true
		}
	}
	_ = distinct // equality of all four is legitimate (global optimum); no assertion
}

// TestRunManyParallelMatchesSequential: any worker count must reproduce
// the sequential results exactly (per-run seeds are pre-split).
func TestRunManyParallelMatchesSequential(t *testing.T) {
	m := model(t, topology.Topology2(), 1, 0)
	opts := Options{Variant: Perturbed, MaxIters: 50, Seed: 21, StallIters: 60}
	seq, err := RunMany(m, opts, 6)
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	for _, workers := range []int{2, 4, 16} {
		par, err := RunManyParallel(m, opts, 6, workers)
		if err != nil {
			t.Fatalf("RunManyParallel(%d): %v", workers, err)
		}
		for i := range seq {
			if seq[i].Eval.U != par[i].Eval.U {
				t.Fatalf("workers=%d: run %d cost %v != sequential %v",
					workers, i, par[i].Eval.U, seq[i].Eval.U)
			}
			if mat.MaxAbsDiff(seq[i].P, par[i].P) != 0 {
				t.Fatalf("workers=%d: run %d matrix differs", workers, i)
			}
		}
	}
}

func TestRunManyParallelValidation(t *testing.T) {
	m := model(t, topology.Topology2(), 1, 0)
	if _, err := RunManyParallel(m, Options{Variant: Adaptive}, 0, 2); !errors.Is(err, ErrOptions) {
		t.Errorf("zero runs err = %v", err)
	}
	// Worker count is clamped, not rejected.
	if _, err := RunManyParallel(m, Options{Variant: Adaptive, MaxIters: 5}, 2, -3); err != nil {
		t.Errorf("negative workers: %v", err)
	}
}

func TestInitialPOverride(t *testing.T) {
	m := model(t, topology.Topology2(), 1, 0)
	init, _ := mat.NewFromRows([][]float64{
		{0.8, 0.1, 0.1},
		{0.1, 0.8, 0.1},
		{0.1, 0.1, 0.8},
	})
	opt, err := New(m, Options{Variant: Basic, MaxIters: 1, FixedStep: 0, Initial: []*mat.Matrix{init}, RecordTrace: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// FixedStep 0 falls back to the default, but MinProb clamping aside,
	// the run started from init: its first-iteration cost must equal the
	// cost at init (steps of 1e-6 barely move it).
	ev, err := m.Evaluate(init)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if math.Abs(res.Trace[0].U-ev.U) > 1e-3*(1+ev.U) {
		t.Errorf("first trace U %v, init U %v", res.Trace[0].U, ev.U)
	}
}

func TestOnIterationCallback(t *testing.T) {
	m := model(t, topology.Topology2(), 1, 0)
	var calls int
	opt, err := New(m, Options{
		Variant:  Basic,
		MaxIters: 10,
		OnIteration: func(rec IterRecord, ps []*mat.Matrix) {
			calls++
			if rec.Iter != calls {
				t.Errorf("iteration %d reported as %d", calls, rec.Iter)
			}
			if len(ps) != 1 || ps[0] == nil {
				t.Error("nil matrix in callback")
			}
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := opt.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 10 {
		t.Errorf("callback fired %d times, want 10", calls)
	}
}

func TestLineSearchFindsDescent(t *testing.T) {
	m := model(t, topology.Topology2(), 1, 0)
	opt, err := New(m, Options{Variant: Adaptive, Seed: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := UniformInit(3)
	ev, err := m.Evaluate(p)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	_, grad, err := m.Gradient(p)
	if err != nil {
		t.Fatalf("Gradient: %v", err)
	}
	dir := cost.Project(grad)
	mat.ScaleInPlace(-1, dir)
	step, u, ok := opt.lineSearch([]*mat.Matrix{p}, []*mat.Matrix{dir}, ev.U)
	if !ok {
		t.Fatal("line search found no descent from the uniform start")
	}
	if step <= 0 {
		t.Fatalf("step = %v", step)
	}
	if u >= ev.U {
		t.Fatalf("line search u %v >= current %v", u, ev.U)
	}
	// Verify the claimed cost at the claimed step.
	cand := p.Clone()
	_ = mat.AddInPlace(cand, step, dir)
	ev2, err := m.Evaluate(cand)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if math.Abs(ev2.U-u) > 1e-9*(1+math.Abs(u)) {
		t.Errorf("line search reported %v, reevaluation gives %v", u, ev2.U)
	}
}

func TestLineSearchZeroAtMinimum(t *testing.T) {
	// At a (near) stationary point the line search along an ascent
	// direction must return no step.
	m := model(t, topology.Topology2(), 1, 0)
	opt, err := New(m, Options{Variant: Adaptive, Seed: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := UniformInit(3)
	ev, err := m.Evaluate(p)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	_, grad, err := m.Gradient(p)
	if err != nil {
		t.Fatalf("Gradient: %v", err)
	}
	// Ascent direction: +projected gradient.
	dir := cost.Project(grad)
	if step, _, ok := opt.lineSearch([]*mat.Matrix{p}, []*mat.Matrix{dir}, ev.U); ok && step > 0 {
		// An ascent direction may still curve downward far away; accept
		// only a genuinely lower cost.
		cand := p.Clone()
		_ = mat.AddInPlace(cand, step, dir)
		ev2, err := m.Evaluate(cand)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		if ev2.U >= ev.U {
			t.Errorf("line search accepted non-improving step %v", step)
		}
	}
}

// TestItersCountsSkippedIterations pins Result.Iters to the iterations
// actually executed. On this 8-PoI field the perturbed descent spends
// most of its budget on iterations whose line search and escape move
// both find no feasible step (the iterate sits on a boundary face);
// those iterations change nothing, but they ran, so a run that did not
// converge reports its whole budget.
func TestItersCountsSkippedIterations(t *testing.T) {
	top, err := topology.Random(rng.New(8), topology.RandomConfig{M: 8, Width: 320, Height: 320})
	if err != nil {
		t.Fatal(err)
	}
	m, err := cost.NewModel(top, cost.Uniform(8, 1, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 50
	opt, err := New(m, Options{Variant: Perturbed, MaxIters: budget, Seed: 1, Workers: 1, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatalf("run converged after %d iterations; the fixture needs a budget-bound run", res.Iters)
	}
	if res.Iters != budget {
		t.Errorf("Iters = %d after an unconverged run of %d iterations", res.Iters, budget)
	}
	if len(res.Trace) >= budget {
		t.Errorf("trace has %d records; the fixture needs skipped iterations", len(res.Trace))
	}
}
