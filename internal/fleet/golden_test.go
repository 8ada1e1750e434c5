package fleet

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/descent"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/topology"
)

// goldenCostModel is the single-sensor model of the small golden fleets:
// Topology3, uniform α=1 β=1e-4, plus both §VII extensions so every term
// of the joint objective and its gradient blocks is exercised.
func goldenCostModel(t *testing.T) *cost.Model {
	t.Helper()
	top := topology.Topology3()
	w := cost.Uniform(top.M(), 1, 1e-4)
	w.EnergyWeight = 0.5
	w.EnergyTarget = 0.3
	w.EntropyWeight = 0.05
	cm, err := cost.NewModel(top, w)
	if err != nil {
		t.Fatalf("cost.NewModel: %v", err)
	}
	return cm
}

// field24 is the 24-PoI random field of TestOptimizeWorkersBitIdentical.
func field24(t *testing.T) *cost.Model {
	t.Helper()
	const m = 24
	top, err := topology.Random(rng.New(m), topology.RandomConfig{
		M: m, Width: 40 * m, Height: 40 * m,
	})
	if err != nil {
		t.Fatalf("topology.Random: %v", err)
	}
	return newCostModel(t, top)
}

// stackHash folds every entry of every sensor's matrix into one value;
// any single-ulp drift anywhere in the stack changes it.
func stackHash(ps []*mat.Matrix) uint64 {
	var sum uint64
	for s, p := range ps {
		for i := 0; i < p.Rows(); i++ {
			for j := 0; j < p.Cols(); j++ {
				sum ^= math.Float64bits(p.At(i, j)) * uint64((s*31+i)*7+j+1)
			}
		}
	}
	return sum
}

// TestGoldenFleetTraces pins the exact best-U bits and best-stack hash
// of the joint perturbed descent for fixed seeds, across versions: the
// small fleets on Topology3 and the 24-PoI field, run alone (w1) and as
// four concurrent copies sharing the model (w4), every copy held to the
// pins. Any mismatch means a floating-point operation of
// the fleet trajectory was reordered, not merely perturbed.
func TestGoldenFleetTraces(t *testing.T) {
	small := goldenCostModel(t)
	field := field24(t)
	cases := []struct {
		name                    string
		cm                      *cost.Model
		sensors, workers, stall int
		seed                    uint64
		bestU, hash             uint64
	}{
		{"topology3/k2", small, 2, 1, 0, 42, 0x3f929d89979cb73c, 0x69d797ea885a8e70},
		{"topology3/k3", small, 3, 1, 0, 42, 0x3fd8f027b42436df, 0x4748d35deb104838},
		{"field24/k3/w1", field, 3, 1, 1000, 99, 0x40de36ca2a63da93, 0x7877be4eff3f7307},
		{"field24/k3/w4", field, 3, 4, 1000, 99, 0x40de36ca2a63da93, 0x7877be4eff3f7307},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seeds := make([]uint64, tc.workers)
			for r := range seeds {
				seeds[r] = tc.seed
			}
			for _, res := range optimizeRestarts(t, tc.cm, tc.sensors, tc.workers, descent.Options{
				MaxIters: 25, StallIters: tc.stall,
			}, seeds) {
				if got := math.Float64bits(res.Eval.U); got != tc.bestU {
					t.Errorf("bestU bits = %#x, want %#x (U = %v)", got, tc.bestU, res.Eval.U)
				}
				if got := stackHash(res.Ps); got != tc.hash {
					t.Errorf("stack hash = %#x, want %#x", got, tc.hash)
				}
			}
		})
	}
}
