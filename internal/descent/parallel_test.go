package descent

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/topology"
)

// runConcurrently runs run(0), …, run(n−1) at once on a width-n Fan and
// returns their results by index. A barrier holds every call until all
// n are in flight, so with n > 1 the calls really overlap: the restarts
// of a best-of search share their objective while they iterate.
func runConcurrently[R any](t *testing.T, n int, run func(r int) (R, error)) []R {
	t.Helper()
	out := make([]R, n)
	var ready sync.WaitGroup
	ready.Add(n)
	err := newFan(n).Run(context.Background(), n, func(r int) error {
		ready.Done()
		ready.Wait()
		var err error
		out[r], err = run(r)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// testModel16 builds a 16-PoI model with all four objective families
// active, for the concurrent-restart bit-exactness tests.
func testModel16(t *testing.T) *cost.Model {
	t.Helper()
	const m = 16
	top, err := topology.Random(rng.New(16), topology.RandomConfig{
		M: m, Width: 640, Height: 640,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := cost.Uniform(m, 1, 1e-3)
	w.EnergyWeight = 0.5
	w.EnergyTarget = 0.3
	w.EntropyWeight = 0.05
	model, err := cost.NewModel(top, w)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// traceKey folds a full Result — trace scalars, probe counts, counters,
// and the final matrix — into exact bit patterns so two runs can be
// compared for byte-identical behavior.
func traceKey(t *testing.T, res *singleResult) string {
	t.Helper()
	key := fmt.Sprintf("iters=%d conv=%v local=%v acc=%d rej=%d u=%#x p=%#x",
		res.Iters, res.Converged, res.LocalOptimum, res.Accepted, res.Rejected,
		math.Float64bits(res.Eval.U), pHash(res))
	for _, rec := range res.Trace {
		key += fmt.Sprintf("|%d:%#x:%#x:%#x:%#x:%#x:%v:%d",
			rec.Iter, math.Float64bits(rec.U), math.Float64bits(rec.Objective),
			math.Float64bits(rec.DeltaC), math.Float64bits(rec.EBar),
			math.Float64bits(rec.Step), rec.Accepted, rec.Probes)
	}
	return key
}

// TestWorkersDeterminism runs four restarts of every variant one after
// another (Workers 1) and all at once (Workers 4) over one shared model,
// and requires byte-identical traces, probe counts and final iterates
// per restart: each restart owns its optimizer and evaluation state, so
// running restarts concurrently changes scheduling, never arithmetic.
func TestWorkersDeterminism(t *testing.T) {
	model := testModel16(t)
	seeds := splitSeeds(99, 4)
	for _, variant := range []Variant{Basic, Adaptive, Perturbed} {
		t.Run(variant.String(), func(t *testing.T) {
			run := func(r int) (string, error) {
				opt, err := newSingle(model, Options{
					Variant: variant, MaxIters: 12, Seed: seeds[r], RecordTrace: true,
				})
				if err != nil {
					return "", err
				}
				res, err := opt.Run()
				if err != nil {
					return "", err
				}
				return traceKey(t, res), nil
			}
			serial := make([]string, len(seeds))
			for r := range seeds {
				serial[r] = runConcurrently(t, 1, func(int) (string, error) { return run(r) })[0]
			}
			for r, key := range runConcurrently(t, len(seeds), run) {
				if key != serial[r] {
					t.Errorf("restart %d: Workers 1 and Workers 4 traces differ:\n  1: %s\n  4: %s", r, serial[r], key)
				}
			}
		})
	}
}

// TestMaxFeasibleStepEdges pins the boundary behavior the line search and
// the perturbed variant's escape move rely on.
func TestMaxFeasibleStepEdges(t *testing.T) {
	const floor = 1e-3
	p := mat.New(2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			p.Set(i, j, 0.5)
		}
	}

	// An all-zero direction has no binding constraint; the Inf bound must
	// collapse to 0, not leak into step arithmetic.
	dir := mat.New(2, 2)
	if got := maxFeasibleStep1(p, dir, floor); got != 0 {
		t.Errorf("zero direction: bound = %v, want 0", got)
	}

	// An entry already at the floor with a negative direction leaves zero
	// room: the only feasible step is 0.
	p.Set(0, 0, floor)
	p.Set(0, 1, 1-floor)
	dir.Set(0, 0, -1)
	dir.Set(0, 1, 1)
	if got := maxFeasibleStep1(p, dir, floor); got != 0 {
		t.Errorf("at-floor entry, inward-pointing direction: bound = %v, want 0", got)
	}

	// The same matrix with the direction reversed has strictly positive
	// room on both entries.
	dir.Set(0, 0, 1)
	dir.Set(0, 1, -1)
	got := maxFeasibleStep1(p, dir, floor)
	want := 1 - 2*floor
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("outward direction: bound = %v, want %v", got, want)
	}

	// An entry at the ceiling (1 - floor) with a positive direction also
	// pins the bound to zero.
	dir.Set(0, 0, 0)
	dir.Set(0, 1, 1)
	if got := maxFeasibleStep1(p, dir, floor); got != 0 {
		t.Errorf("at-ceiling entry, outward direction: bound = %v, want 0", got)
	}
}

// maxFeasibleStep1 is maxFeasibleStep for a one-matrix stack.
func maxFeasibleStep1(p, dir *mat.Matrix, floor float64) float64 {
	return maxFeasibleStep([]*mat.Matrix{p}, []*mat.Matrix{dir}, floor)
}

// lineSearchFixture returns an optimizer over the 16-PoI test model,
// with the inputs of one line-search step.
func lineSearchFixture(t *testing.T) (*singleOptimizer, []*mat.Matrix, []*mat.Matrix, float64) {
	t.Helper()
	opt, err := newSingle(testModel16(t), Options{Variant: Adaptive, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, dir, curU := searchInputs(t, opt)
	return opt, p, dir, curU
}

// searchAt runs opt's line search at p along dir, bounded by the
// feasibility bound the run loop gives it.
func searchAt[S State[E], E any](opt *Optimizer[S, E], p, dir []*mat.Matrix, curU float64) (float64, float64, bool) {
	return opt.lineSearch(maxFeasibleStep(p, dir, opt.opts.MinProb), curU)
}

// searchInputs returns the inputs of one line-search step for opt: a
// random iterate of its objective's shape, the iterate's projected
// steepest-descent direction, and its cost. opt's search lines are
// built through them (primeSearch).
func searchInputs[S State[E], E any](tb testing.TB, opt *Optimizer[S, E]) (p, dir []*mat.Matrix, curU float64) {
	tb.Helper()
	src := rng.New(1)
	p = make([]*mat.Matrix, opt.k)
	for s := range p {
		p[s] = RandomInit(src, opt.m, DefaultMinProb)
	}
	curU, err := opt.st.Evaluate(p)
	if err != nil {
		tb.Fatal(err)
	}
	if err := opt.st.Gradient(opt.grad); err != nil {
		tb.Fatal(err)
	}
	dir = newStack(opt.k, opt.m)
	for s, g := range opt.grad {
		cost.ProjectTo(dir[s], g)
		mat.ScaleInPlace(-1, dir[s])
	}
	primeSearch(tb, opt, p, dir)
	return p, dir, curU
}

// primeSearch readies opt for a direct lineSearch call at p along dir
// the way RunContext does: it evaluates p and builds the search lines
// from that evaluation.
func primeSearch[S State[E], E any](tb testing.TB, opt *Optimizer[S, E], p, dir []*mat.Matrix) {
	tb.Helper()
	if _, err := opt.st.Evaluate(p); err != nil {
		tb.Fatal(err)
	}
	if err := opt.st.Line(dir); err != nil {
		tb.Fatal(err)
	}
}

// TestSteadyStateAllocs asserts the zero-allocation contract of the hot
// path: evaluation, gradient assembly, and a full line-search step
// allocate nothing in steady state. An optimizer iterates on one worker
// (restarts, not gradient rows, are what run concurrently), so the one
// case measured is workers=1.
func TestSteadyStateAllocs(t *testing.T) {
	t.Run("workers=1", testSteadyStateAllocs)
}

func testSteadyStateAllocs(t *testing.T) {
	opt, ps, dir, curU := lineSearchFixture(t)
	st := opt.st

	// Warm up: lazily-allocated scratch (gradient buffers, LU batch
	// scratch) comes into existence here, not inside the measured runs.
	if _, err := st.Evaluate(ps); err != nil {
		t.Fatal(err)
	}
	if err := st.Gradient(opt.grad); err != nil {
		t.Fatal(err)
	}
	searchAt(opt, ps, dir, curU)

	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := st.Evaluate(ps); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Evaluate allocates %v per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := st.Evaluate(ps); err != nil {
			t.Fatal(err)
		}
		if err := st.Gradient(opt.grad); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Evaluate and Gradient allocate %v per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if step, _, ok := searchAt(opt, ps, dir, curU); !ok && step != 0 {
			t.Fatal("inconsistent line search result")
		}
	}); allocs != 0 {
		t.Errorf("lineSearch allocates %v per call, want 0", allocs)
	}
}

// searchObjectives are the objectives the line-search tests run on: the
// 16-PoI test model as one sensor, and a fleet of two sensors over it.
func searchObjectives(t *testing.T) (one, two Objective[*fleet.State]) {
	t.Helper()
	model := testModel16(t)
	fm1, err := fleet.NewModel(model, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fm2, err := fleet.NewModel(model, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fm1, fm2
}
