package descent

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/topology"
)

// singleOptimizer and singleResult are the one-sensor instantiations
// most tests in this package run: a single sensor's cost as the K = 1
// case of the joint fleet objective.
type (
	singleOptimizer = Optimizer[*fleet.State, *fleet.Evaluation]
	singleResult    = Result[*fleet.Evaluation]
)

// newSingle builds an optimizer over model's cost as a one-sensor fleet.
func newSingle(model *cost.Model, opts Options) (*singleOptimizer, error) {
	fm, err := fleet.NewModel(model, 1, nil)
	if err != nil {
		return nil, err
	}
	return NewOptimizer(fm, opts)
}

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
// TestGoldenTracesWithWorkers, TestGoldenOneSensorFleet and
// TestOnIterationBitExact hold their runs to it.
var goldenVariants = []struct {
	variant Variant
	bestU   uint64
	phash   uint64
}{
	{Basic, 0x3fe357f9e57f67c3, 0x2000232925950e4},
	{Adaptive, 0x3fc369a4d6006032, 0x66099d811f5d625},
	{Perturbed, 0x3fbf0db09671216c, 0x7cb38580bb433cd},
}

// goldenParallelRuns pins the four perturbed 15-iteration restarts whose
// seeds are split from seed 7, on goldenModel.
var goldenParallelRuns = []uint64{
	0x3fc74d5eb2dda600,
	0x3fc591dba240f969,
	0x3fc7298b827807b4,
	0x3fc26b7ac2705134,
}

// runGolden runs one golden configuration on goldenModel's one-sensor
// fleet: workers copies of the run at once (runConcurrently), all sharing
// the model, so a golden replayed with workers > 1 also pins that
// concurrent restarts leave each other's arithmetic alone.
func runGolden(t *testing.T, model *cost.Model, opts Options, workers int) []*singleResult {
	t.Helper()
	return runConcurrently(t, workers, func(int) (*singleResult, error) {
		opt, err := newSingle(model, opts)
		if err != nil {
			return nil, err
		}
		return opt.Run()
	})
}

// checkGolden holds a 25-iteration seed-42 result to its variant's pins.
func checkGolden(t *testing.T, res *singleResult, bestU, phash uint64) {
	t.Helper()
	if got := math.Float64bits(res.Eval.U); got != bestU {
		t.Errorf("bestU bits = %#x, want %#x (U = %v)", got, bestU, res.Eval.U)
	}
	if got := pHash(res); got != phash {
		t.Errorf("P hash = %#x, want %#x", got, phash)
	}
}

// TestGoldenTraces pins the exact float64 bit patterns each descent
// variant produces for a fixed seed. The values were captured from the
// seed implementation's single-sensor cost model before the workspace
// refactor; the refactor's contract is bit-for-bit identical arithmetic,
// so any mismatch here means a floating-point operation was reordered,
// not merely perturbed.
func TestGoldenTraces(t *testing.T) {
	model := goldenModel(t)
	for _, tc := range goldenVariants {
		t.Run(tc.variant.String(), func(t *testing.T) {
			res := runGolden(t, model, Options{
				Variant: tc.variant, MaxIters: 25, Seed: 42, RecordTrace: true,
			}, 1)[0]
			checkGolden(t, res, tc.bestU, tc.phash)
			for _, rec := range res.Trace {
				if math.IsNaN(rec.U) {
					t.Fatalf("iter %d: trace U is NaN", rec.Iter)
				}
			}
		})
	}
}

// TestGoldenTracesWithWorkers replays the goldens as four copies running
// at once on one shared model: every copy must reproduce the pins bit
// for bit.
func TestGoldenTracesWithWorkers(t *testing.T) {
	model := goldenModel(t)
	for _, tc := range goldenVariants {
		t.Run(tc.variant.String(), func(t *testing.T) {
			for _, res := range runGolden(t, model, Options{
				Variant: tc.variant, MaxIters: 25, Seed: 42,
			}, 4) {
				checkGolden(t, res, tc.bestU, tc.phash)
			}
		})
	}
}

// TestGoldenOneSensorFleet checks that at K = 1 the joint fleet
// objective is the single-sensor cost term by term: the best evaluation
// each golden run reports, alone and as one of four concurrent copies,
// and each split-seed restart's best U must equal what cost.Model
// computes for the best P, bit for bit.
func TestGoldenOneSensorFleet(t *testing.T) {
	model := goldenModel(t)
	for _, workers := range []int{1, 4} {
		for _, tc := range goldenVariants {
			t.Run(fmt.Sprintf("%v/w%d", tc.variant, workers), func(t *testing.T) {
				for _, res := range runGolden(t, model, Options{
					Variant: tc.variant, MaxIters: 25, Seed: 42,
				}, workers) {
					checkGolden(t, res, tc.bestU, tc.phash)
					checkSensorTerms(t, model, res)
				}
			})
		}
	}
	t.Run("parallel-runs", func(t *testing.T) {
		for i, seed := range splitSeeds(7, len(goldenParallelRuns)) {
			res := runGolden(t, model, Options{Variant: Perturbed, MaxIters: 15, Seed: seed}, 1)[0]
			if got := math.Float64bits(res.Eval.U); got != goldenParallelRuns[i] {
				t.Errorf("run %d: bestU bits = %#x, want %#x", i, got, goldenParallelRuns[i])
			}
			checkSensorTerms(t, model, res)
		}
	})
}

// checkSensorTerms compares a one-sensor fleet result's best evaluation
// with model's own evaluation of the best P, bit for bit.
func checkSensorTerms(t *testing.T, model *cost.Model, res *singleResult) {
	t.Helper()
	want, err := model.Evaluate(res.P)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Eval
	for _, term := range []struct {
		name      string
		got, want float64
	}{
		{"U", got.U, want.U},
		{"Objective", got.Objective, want.Objective},
		{"CoverageTerm", got.CoverageTerm, want.CoverageTerm},
		{"ExposureTerm", got.ExposureTerm, want.ExposureTerm},
		{"Penalty", got.Penalty, want.Penalty},
		{"EnergyTerm", got.EnergyTerm, want.EnergyTerm},
		{"EntropyTerm", got.EntropyTerm, want.EntropyTerm},
		{"DeltaC", got.DeltaC, want.DeltaC},
		{"EBar", got.EBar, want.EBar},
	} {
		if math.Float64bits(term.got) != math.Float64bits(term.want) {
			t.Errorf("%s = %v, cost.Model gives %v", term.name, term.got, term.want)
		}
	}
	for i := range want.G {
		if math.Float64bits(got.G[i]) != math.Float64bits(want.G[i]) {
			t.Errorf("G[%d] = %v, cost.Model gives %v", i, got.G[i], want.G[i])
		}
		if math.Float64bits(got.MinExposure[i]) != math.Float64bits(want.EBarI[i]) {
			t.Errorf("MinExposure[%d] = %v, cost.Model's EBarI gives %v", i, got.MinExposure[i], want.EBarI[i])
		}
	}
}

// TestGoldenParallelRuns pins the per-restart results of a split-seed
// multi-start search: restart r runs with the r-th seed drawn from the
// master seed, as coverage.SplitSeeds draws them, and the restarts run
// one at a time or four at once on a Fan. Scheduling must never leak
// into the numerics: each restart owns its optimizer and evaluation
// state.
func TestGoldenParallelRuns(t *testing.T) {
	model := goldenModel(t)
	seeds := splitSeeds(7, len(goldenParallelRuns))
	for _, workers := range []int{1, 4} {
		got := make([]*singleResult, len(seeds))
		err := newFan(workers).Run(context.Background(), len(seeds), func(r int) error {
			opt, err := newSingle(model, Options{Variant: Perturbed, MaxIters: 15, Seed: seeds[r]})
			if err != nil {
				return err
			}
			got[r], err = opt.Run()
			return err
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, want := range goldenParallelRuns {
			if bits := math.Float64bits(got[i].Eval.U); bits != want {
				t.Errorf("workers=%d run %d: bestU bits = %#x, want %#x", workers, i, bits, want)
			}
		}
	}
}
