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
	opt, err := New(model, Options{Variant: Adaptive, MaxIters: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	rec := IterRecord{Iter: 3, U: 1.5, Step: 1e-4, Accepted: true, Probes: 12}
	p := mat.New(2, 2)
	if allocs := testing.AllocsPerRun(100, func() {
		opt.record(res, rec, p)
	}); allocs != 0 {
		t.Errorf("record with nil hook allocates %v per call, want 0", allocs)
	}
}

// TestOnIterationBitExact runs the pinned golden configurations with an
// OnIteration hook attached and requires the exact bit patterns of the
// hook-free golden runs: observing the descent must never perturb it.
func TestOnIterationBitExact(t *testing.T) {
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
			var calls int
			opt, err := New(model, Options{
				Variant: tc.variant, MaxIters: 25, Seed: 42,
				OnIteration: func(rec IterRecord, p *mat.Matrix) {
					calls++
					if rec.Iter != calls {
						t.Errorf("hook call %d carries Iter %d", calls, rec.Iter)
					}
					if p == nil {
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
			opt, err := New(model, Options{
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
// telemetry, not part of the determinism contract.
func TestProbeCountsSerialVsBatched(t *testing.T) {
	forceFanOut(t)
	model := testModel16(t)
	traces := make(map[int][]IterRecord)
	for _, workers := range []int{1, 4} {
		opt, err := New(model, Options{
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
