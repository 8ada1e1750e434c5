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

// singleOptimizer and singleResult are the one-sensor instantiations
// every test in this package runs.
type (
	singleOptimizer = Optimizer[*singleState, *cost.Evaluation]
	singleResult    = Result[*cost.Evaluation]
)

// goldenModel is the fixed configuration the golden traces below were
// captured with: Topology3, uniform α=1 β=1e-4, plus both §VII extensions
// so every term of the objective and gradient is exercised.
func goldenModel(t *testing.T) *cost.Model {
	t.Helper()
	top := topology.Topology3()
	w := cost.Uniform(top.M(), 1, 1e-4)
	w.EnergyWeight = 0.5
	w.EnergyTarget = 0.3
	w.EntropyWeight = 0.05
	m, err := cost.NewModel(top, w)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

// pHash folds a result matrix's exact bit patterns into one value; any
// single-ulp drift in any entry changes it.
func pHash(res *singleResult) uint64 { return matrixHash(res.P) }

// matrixHash is pHash for any matrix.
func matrixHash(p *mat.Matrix) uint64 {
	var sum uint64
	for i := 0; i < p.Rows(); i++ {
		for j := 0; j < p.Cols(); j++ {
			sum ^= math.Float64bits(p.At(i, j)) * uint64(i*7+j+1)
		}
	}
	return sum
}

// goldenVariants pins, per variant, the best-U bits and best-P hash of
// a 25-iteration seed-42 run on goldenModel. TestGoldenTraces,
// TestGoldenTracesWithWorkers, TestOnIterationBitExact and
// TestGoldenOneSensorFleet all hold their runs to it.
var goldenVariants = []struct {
	variant Variant
	bestU   uint64
	phash   uint64
}{
	{Basic, 0x3fe357f9e57f67c3, 0x2000232925950e4},
	{Adaptive, 0x3fc369a4d6006032, 0x66099d811f5d625},
	{Perturbed, 0x3fbf0db09671216c, 0x7cb38580bb433cd},
}

// goldenParallelRuns pins RunManyParallel's four perturbed 15-iteration
// runs from seed 7 on goldenModel.
var goldenParallelRuns = []uint64{
	0x3fc74d5eb2dda600,
	0x3fc591dba240f969,
	0x3fc7298b827807b4,
	0x3fc26b7ac2705134,
}

// TestGoldenTraces pins the exact float64 bit patterns each descent
// variant produces for a fixed seed. The values were captured from the
// seed implementation before the workspace refactor; the refactor's
// contract is bit-for-bit identical arithmetic, so any mismatch here means
// a floating-point operation was reordered, not merely perturbed.
func TestGoldenTraces(t *testing.T) {
	model := goldenModel(t)
	for _, tc := range goldenVariants {
		t.Run(tc.variant.String(), func(t *testing.T) {
			opt, err := New(model, Options{
				Variant: tc.variant, MaxIters: 25, Seed: 42, RecordTrace: true,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, err := opt.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := math.Float64bits(res.Eval.U); got != tc.bestU {
				t.Errorf("bestU bits = %#x, want %#x (U = %v)", got, tc.bestU, res.Eval.U)
			}
			if got := pHash(res); got != tc.phash {
				t.Errorf("P hash = %#x, want %#x", got, tc.phash)
			}
			// The trace and the result must agree: the recorded minimum U
			// never undercuts the reported best.
			for _, rec := range res.Trace {
				if math.IsNaN(rec.U) {
					t.Fatalf("iter %d: trace U is NaN", rec.Iter)
				}
			}
		})
	}
}

// TestGoldenParallelRuns pins RunManyParallel's per-run results for a
// fixed seed: worker scheduling must never leak into the numerics (seeds
// are split up front, each worker owns its Optimizer and Workspace).
func TestGoldenParallelRuns(t *testing.T) {
	model := goldenModel(t)
	want := goldenParallelRuns
	for _, workers := range []int{1, 4} {
		rs, err := RunManyParallel(model, Options{
			Variant: Perturbed, MaxIters: 15, Seed: 7,
		}, 4, workers)
		if err != nil {
			t.Fatalf("workers=%d: RunManyParallel: %v", workers, err)
		}
		for i, r := range rs {
			if got := math.Float64bits(r.Eval.U); got != want[i] {
				t.Errorf("workers=%d run %d: bestU bits = %#x, want %#x",
					workers, i, got, want[i])
			}
		}
	}
}

// TestGoldenOneSensorFleet replays every single-sensor golden through a
// one-sensor fleet.Model: at K = 1 the joint objective must reproduce
// cost.Model bit for bit — evaluation, gradient and therefore the whole
// trajectory — serially, on a fanned-out pool, and for the split seeds
// of RunManyParallel.
func TestGoldenOneSensorFleet(t *testing.T) {
	model := goldenModel(t)
	fm, err := fleet.NewModel(model, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, opts Options) *Result[*fleet.Evaluation] {
		t.Helper()
		opt, err := NewOptimizer(fm, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Run()
		if err != nil {
			t.Fatal(err)
		}
		if opts.Workers > 1 {
			requireForked(t, opt)
		}
		return res
	}
	for _, workers := range []int{1, 4} {
		for _, tc := range goldenVariants {
			t.Run(fmt.Sprintf("%v/w%d", tc.variant, workers), func(t *testing.T) {
				if workers > 1 {
					forceFanOut(t)
				}
				res := run(t, Options{Variant: tc.variant, MaxIters: 25, Seed: 42, Workers: workers})
				if got := math.Float64bits(res.Eval.U); got != tc.bestU {
					t.Errorf("bestU bits = %#x, want %#x (U = %v)", got, tc.bestU, res.Eval.U)
				}
				if got := matrixHash(res.P); got != tc.phash {
					t.Errorf("P hash = %#x, want %#x", got, tc.phash)
				}
			})
		}
	}
	t.Run("parallel-runs", func(t *testing.T) {
		master := rng.New(7)
		for i, want := range goldenParallelRuns {
			res := run(t, Options{Variant: Perturbed, MaxIters: 15, Seed: master.Uint64()})
			if got := math.Float64bits(res.Eval.U); got != want {
				t.Errorf("run %d: bestU bits = %#x, want %#x", i, got, want)
			}
		}
	})
}
