package descent

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// TestRecordNilHookZeroAllocs pins the telemetry contract from the
// observability layer's point of view: with no OnIteration hook and no
// trace recording, the per-iteration record dispatch adds zero
// allocations to the optimizer loop.
func TestRecordNilHookZeroAllocs(t *testing.T) {
	model := goldenModel(t)
	opt, err := newSingle(model, Options{Variant: Adaptive, MaxIters: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := &singleResult{}
	rec := IterRecord{Iter: 3, U: 1.5, Step: 1e-4, Accepted: true, Probes: 12}
	ps := []*mat.Matrix{mat.New(2, 2)}
	if allocs := testing.AllocsPerRun(100, func() {
		opt.record(res, rec, ps)
	}); allocs != 0 {
		t.Errorf("record with nil hook allocates %v per call, want 0", allocs)
	}
}

// TestOnIterationBitExact runs the pinned golden configurations with an
// OnIteration hook attached and requires the exact bit patterns of the
// hook-free golden runs: observing the descent must never perturb it.
func TestOnIterationBitExact(t *testing.T) {
	model := goldenModel(t)
	for _, tc := range goldenVariants {
		t.Run(tc.variant.String(), func(t *testing.T) {
			var calls int
			opt, err := newSingle(model, Options{
				Variant: tc.variant, MaxIters: 25, Seed: 42,
				OnIteration: func(rec IterRecord, ps []*mat.Matrix) {
					calls++
					if rec.Iter != calls {
						t.Errorf("hook call %d carries Iter %d", calls, rec.Iter)
					}
					if len(ps) != 1 || ps[0] == nil {
						t.Error("hook received nil matrix")
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := opt.Run()
			if err != nil {
				t.Fatal(err)
			}
			if calls == 0 {
				t.Fatal("hook never fired")
			}
			if got := math.Float64bits(res.Eval.U); got != tc.bestU {
				t.Errorf("bestU bits with hook = %#x, want %#x", got, tc.bestU)
			}
			if got := pHash(res); got != tc.phash {
				t.Errorf("P hash with hook = %#x, want %#x", got, tc.phash)
			}
		})
	}
}

// TestProbeCounts checks the IterRecord.Probes semantics: the Basic
// variant never line-searches (always 0); the adaptive variants report a
// positive probe count on every line-searched iteration.
func TestProbeCounts(t *testing.T) {
	model := goldenModel(t)
	for _, tc := range []struct {
		variant    Variant
		wantProbes bool
	}{
		{Basic, false},
		{Adaptive, true},
		{Perturbed, true},
	} {
		t.Run(tc.variant.String(), func(t *testing.T) {
			opt, err := newSingle(model, Options{
				Variant: tc.variant, MaxIters: 10, Seed: 42, RecordTrace: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := opt.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Trace) == 0 {
				t.Fatal("empty trace")
			}
			for _, rec := range res.Trace {
				if tc.wantProbes && rec.Probes <= 0 && rec.Step > 0 {
					t.Errorf("iter %d: stepped %v with %d probes", rec.Iter, rec.Step, rec.Probes)
				}
				if !tc.wantProbes && rec.Probes != 0 {
					t.Errorf("iter %d: Basic variant reports %d probes, want 0", rec.Iter, rec.Probes)
				}
			}
		})
	}
}

// TestProbeCountsSerialVsBatched documents that probe counts are
// scheduling-dependent (the batched search may evaluate past the serial
// cutoff) while the chosen steps stay bit-identical — Probes is
// telemetry, not part of the determinism contract. A K = 2 fleet takes
// the same batched search as a single sensor.
func TestProbeCountsSerialVsBatched(t *testing.T) {
	forceFanOut(t)
	one, two := searchObjectives(t)
	t.Run("single", func(t *testing.T) { probeCountsSerialVsBatched(t, one) })
	t.Run("fleet-k2", func(t *testing.T) { probeCountsSerialVsBatched(t, two) })
}

func probeCountsSerialVsBatched[S State[E], E any](t *testing.T, obj Objective[S]) {
	traces := make(map[int][]IterRecord)
	for _, workers := range []int{1, 4} {
		opt, err := NewOptimizer(obj, Options{
			Variant: Adaptive, MaxIters: 8, Seed: 3,
			Workers: workers, RecordTrace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Run()
		if err != nil {
			t.Fatal(err)
		}
		if workers > 1 {
			requireForked(t, opt)
		}
		traces[workers] = res.Trace
	}
	if len(traces[1]) != len(traces[4]) {
		t.Fatalf("trace lengths differ: %d vs %d", len(traces[1]), len(traces[4]))
	}
	for i := range traces[1] {
		s, b := traces[1][i], traces[4][i]
		if math.Float64bits(s.Step) != math.Float64bits(b.Step) {
			t.Errorf("iter %d: steps differ: %v vs %v", s.Iter, s.Step, b.Step)
		}
		if s.Probes <= 0 || b.Probes <= 0 {
			if s.Step > 0 {
				t.Errorf("iter %d: nonpositive probe counts %d / %d", s.Iter, s.Probes, b.Probes)
			}
		}
	}
}
