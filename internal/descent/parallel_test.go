package descent

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/topology"
)

// forceFanOut drops the fan-out threshold for the rest of the test, so
// multi-worker optimizers over the small test models take the pooled
// gradient and batched line-search paths that minFanOutOrder would
// otherwise skip. Tests in this package do not run in parallel.
func forceFanOut(t *testing.T) {
	t.Helper()
	prev := minFanOutOrder
	minFanOutOrder = 0
	t.Cleanup(func() { minFanOutOrder = prev })
}

// requireForked fails the test unless opt's pool actually fanned out.
func requireForked[S State[E], E any](t *testing.T, opt *Optimizer[S, E]) {
	t.Helper()
	if opt.pool.Forks() == 0 {
		t.Fatalf("Workers=%d optimizer never fanned out across its pool", opt.opts.Workers)
	}
}

// testModel16 builds a 16-PoI model with all four objective families
// active, for the Workers bit-exactness tests.
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

// traceKey folds a full Result — trace scalars, counters, and the final
// matrix — into exact bit patterns so two runs can be compared for
// byte-identical behavior.
func traceKey(t *testing.T, res *singleResult) string {
	t.Helper()
	key := fmt.Sprintf("iters=%d conv=%v local=%v acc=%d rej=%d u=%#x p=%#x",
		res.Iters, res.Converged, res.LocalOptimum, res.Accepted, res.Rejected,
		math.Float64bits(res.Eval.U), pHash(res))
	for _, rec := range res.Trace {
		key += fmt.Sprintf("|%d:%#x:%#x:%#x:%#x:%#x:%v",
			rec.Iter, math.Float64bits(rec.U), math.Float64bits(rec.Objective),
			math.Float64bits(rec.DeltaC), math.Float64bits(rec.EBar),
			math.Float64bits(rec.Step), rec.Accepted)
	}
	return key
}

// TestWorkersDeterminism runs every variant with Workers: 1 (the exact
// serial path, no pool) and Workers: 4 (parallel gradient rows, pooled
// contractions, batched line-search probes) and requires byte-identical
// traces and final iterates. This is the tentpole contract: parallelism
// changes scheduling, never arithmetic.
func TestWorkersDeterminism(t *testing.T) {
	forceFanOut(t)
	model := testModel16(t)
	for _, variant := range []Variant{Basic, Adaptive, Perturbed} {
		t.Run(variant.String(), func(t *testing.T) {
			keys := make(map[int]string)
			for _, workers := range []int{1, 4} {
				opt, err := New(model, Options{
					Variant: variant, MaxIters: 12, Seed: 99,
					Workers: workers, RecordTrace: true,
				})
				if err != nil {
					t.Fatalf("New(workers=%d): %v", workers, err)
				}
				res, err := opt.Run()
				if err != nil {
					t.Fatalf("Run(workers=%d): %v", workers, err)
				}
				if workers > 1 {
					requireForked(t, opt)
				}
				keys[workers] = traceKey(t, res)
			}
			if keys[1] != keys[4] {
				t.Errorf("Workers:1 and Workers:4 traces differ:\n  1: %s\n  4: %s", keys[1], keys[4])
			}
		})
	}
}

// TestGoldenTracesWithWorkers re-runs the pinned golden configurations
// with a multi-worker pool: the expected bit patterns are the same
// constants TestGoldenTraces pins for the serial path.
func TestGoldenTracesWithWorkers(t *testing.T) {
	forceFanOut(t)
	model := goldenModel(t)
	cases := []struct {
		variant Variant
		bestU   uint64
		phash   uint64
	}{
		{Basic, 0x3fe357f9e57f67c4, 0x2000232925950e4},
		{Adaptive, 0x3fc369a4d6006051, 0x66099d811f5ca4c},
		{Perturbed, 0x3fbf0db09671202d, 0x7cb38580bb6e030},
	}
	for _, tc := range cases {
		t.Run(tc.variant.String(), func(t *testing.T) {
			opt, err := New(model, Options{
				Variant: tc.variant, MaxIters: 25, Seed: 42, Workers: 4,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, err := opt.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			requireForked(t, opt)
			if got := math.Float64bits(res.Eval.U); got != tc.bestU {
				t.Errorf("bestU bits = %#x, want %#x (U = %v)", got, tc.bestU, res.Eval.U)
			}
			if got := pHash(res); got != tc.phash {
				t.Errorf("P hash = %#x, want %#x", got, tc.phash)
			}
		})
	}
}

// TestFanOutThreshold pins which optimizers get a pool: none with one
// worker or below minFanOutOrder PoIs, one from the threshold up, sized
// to Workers.
func TestFanOutThreshold(t *testing.T) {
	for _, tc := range []struct {
		workers, m int
		pooled     bool
	}{
		{1, 64, false},
		{4, 3, false},
		{4, minFanOutOrder - 1, false},
		{4, minFanOutOrder, true},
		{2, 64, true},
	} {
		pool := NewIterationPool(tc.workers, tc.m)
		if (pool != nil) != tc.pooled {
			t.Errorf("NewIterationPool(%d, %d) = %v, want pooled %v", tc.workers, tc.m, pool, tc.pooled)
		}
		if pool != nil && pool.Workers() != tc.workers {
			t.Errorf("NewIterationPool(%d, %d) has width %d", tc.workers, tc.m, pool.Workers())
		}
	}
	// The small test model runs serially whatever Workers says.
	opt, err := New(testModel16(t), Options{Variant: Adaptive, MaxIters: 2, Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if opt.pool != nil || opt.probeSt != nil {
		t.Fatal("16-PoI optimizer attached a pool below the fan-out threshold")
	}
}

// TestOptionsWorkersValidation checks the Workers knob's edges: negative
// is rejected, zero defaults to GOMAXPROCS (≥ 1).
func TestOptionsWorkersValidation(t *testing.T) {
	model := goldenModel(t)
	if _, err := New(model, Options{Variant: Adaptive, Workers: -1}); err == nil {
		t.Fatal("Workers: -1 accepted")
	}
	opt, err := New(model, Options{Variant: Adaptive})
	if err != nil {
		t.Fatal(err)
	}
	if opt.opts.Workers < 1 {
		t.Fatalf("defaulted Workers = %d, want >= 1", opt.opts.Workers)
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

// lineSearchFixture returns an optimizer with the given worker count
// over the 16-PoI test model, with the inputs of one line-search step.
func lineSearchFixture(t *testing.T, workers int) (*singleOptimizer, []*mat.Matrix, []*mat.Matrix, float64) {
	t.Helper()
	opt, err := New(testModel16(t), Options{Variant: Adaptive, Seed: 1, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	p, dir, curU := searchInputs(t, opt)
	return opt, p, dir, curU
}

// searchInputs returns the inputs of one line-search step for opt: a
// random iterate of its objective's shape, the iterate's projected
// steepest-descent direction, and its cost.
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
	return p, dir, curU
}

// TestSteadyStateAllocs asserts the zero-allocation contract of the hot
// path: evaluation, gradient assembly, and a full line-search step
// allocate nothing in steady state — serial and with a warmed pool.
func TestSteadyStateAllocs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			forceFanOut(t)
			opt, ps, dir, curU := lineSearchFixture(t, workers)
			model, ws, p := opt.st.model, opt.st.ws, ps[0]
			t.Cleanup(func() { opt.pool.Stop() })

			// Warm up: lazily-allocated scratch (gradient buffers, worker
			// slots, LU batch scratch) and pool goroutines come into
			// existence here, not inside the measured runs.
			if _, _, err := model.GradientIn(ws, p); err != nil {
				t.Fatal(err)
			}
			opt.lineSearch(ps, dir, curU)
			if workers > 1 {
				requireForked(t, opt)
			}

			if allocs := testing.AllocsPerRun(10, func() {
				if _, err := model.EvaluateIn(ws, p); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("EvaluateIn allocates %v per call, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(10, func() {
				if _, _, err := model.GradientIn(ws, p); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("GradientIn allocates %v per call, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(10, func() {
				if step, _, ok := opt.lineSearch(ps, dir, curU); !ok && step != 0 {
					t.Fatal("inconsistent line search result")
				}
			}); allocs != 0 {
				t.Errorf("lineSearch allocates %v per call, want 0", allocs)
			}
		})
	}
}

// searchObjectives are the objectives the batched line search is held
// to serial-identical steps on: the 16-PoI test model as one sensor, and
// a fleet of two sensors over it.
func searchObjectives(t *testing.T) (Objective[*singleState], Objective[*fleet.State]) {
	t.Helper()
	model := testModel16(t)
	fm, err := fleet.NewModel(model, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return single{model}, fm
}

// TestBatchedLineSearchMatchesSerial compares the serial and batched line
// searches directly on the same inputs: same step, same cost, same flag,
// bit for bit, for a single sensor and for a K = 2 fleet.
func TestBatchedLineSearchMatchesSerial(t *testing.T) {
	forceFanOut(t)
	one, two := searchObjectives(t)
	t.Run("single", func(t *testing.T) { batchedMatchesSerial(t, one) })
	t.Run("fleet-k2", func(t *testing.T) { batchedMatchesSerial(t, two) })
}

func batchedMatchesSerial[S State[E], E any](t *testing.T, obj Objective[S]) {
	serial, err := NewOptimizer(obj, Options{Variant: Adaptive, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewOptimizer(obj, Options{Variant: Adaptive, Seed: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { batched.pool.Stop() })
	p, dir, curU := searchInputs(t, serial)

	s1, u1, ok1 := serial.lineSearch(p, dir, curU)
	s2, u2, ok2 := batched.lineSearch(p, dir, curU)
	requireForked(t, batched)
	if !ok1 || s1 <= 0 {
		t.Fatalf("serial search found no step (%v, %v)", s1, ok1)
	}
	if math.Float64bits(s1) != math.Float64bits(s2) ||
		math.Float64bits(u1) != math.Float64bits(u2) || ok1 != ok2 {
		t.Errorf("serial (%v, %v, %v) != batched (%v, %v, %v)", s1, u1, ok1, s2, u2, ok2)
	}
}
