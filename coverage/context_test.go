package coverage

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// cancelBestOf cancels a long multi-start search at Workers 4 after
// 60 ms and checks the contract: a prompt return with context.Canceled
// and a best-so-far plan, no restart started after the cancellation, and
// every goroutine the search started gone.
func cancelBestOf(t *testing.T, optimize func(context.Context, Options) (*Plan, error), rows int) {
	t.Helper()
	fans := keepFans(t)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(60*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	plan, err := optimize(ctx, Options{MaxIters: 50_000_000, Seed: 9, Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancel took %v to take effect", elapsed)
	}
	if plan == nil {
		t.Fatal("no best-so-far plan returned")
	}
	if len(plan.TransitionMatrix) != rows {
		t.Errorf("plan has %d rows, want %d", len(plan.TransitionMatrix), rows)
	}
	// No restart can finish 50M iterations in 60 ms, so only restarts in
	// flight at the cancellation ever started.
	if f := (*fans)[0]; f.Started() < 1 || f.Started() > f.Width() {
		t.Errorf("started %d restarts on a width-%d fan", f.Started(), f.Width())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after the search, %d before", n, baseline)
	}
}

// TestOptimizeBestContextCancel: cancelling a multi-start search returns
// promptly with the best plan found so far.
func TestOptimizeBestContextCancel(t *testing.T) {
	scn, err := PaperTopology(3)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	cancelBestOf(t, func(ctx context.Context, opts Options) (*Plan, error) {
		return OptimizeBestContext(ctx, scn, Objectives{Alpha: 1, Beta: 1e-4}, opts, 1000)
	}, len(scn.PoIs))
}

// TestOptimizeFleetBestContextCancel is the fleet twin of
// TestOptimizeBestContextCancel.
func TestOptimizeFleetBestContextCancel(t *testing.T) {
	scn, err := PaperTopology(3)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	cancelBestOf(t, func(ctx context.Context, opts Options) (*Plan, error) {
		return OptimizeFleetBestContext(ctx, scn, Objectives{Alpha: 1, Beta: 1e-4}, opts, 2, nil, 1000)
	}, len(scn.PoIs))
}

// TestOptimizeBestContextMatchesOptimizeBest: the context path and the
// per-restart SplitSeeds recipe both reproduce OptimizeBest exactly.
func TestOptimizeBestContextMatchesOptimizeBest(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	obj := Objectives{Alpha: 1, Beta: 1e-4}
	opts := Options{MaxIters: 150, Seed: 31}
	const restarts = 4

	want, err := OptimizeBest(scn, obj, opts, restarts)
	if err != nil {
		t.Fatalf("OptimizeBest: %v", err)
	}
	got, err := OptimizeBestContext(context.Background(), scn, obj, opts, restarts)
	if err != nil {
		t.Fatalf("OptimizeBestContext: %v", err)
	}
	if want.Cost != got.Cost {
		t.Errorf("Cost: %v != %v", want.Cost, got.Cost)
	}

	// Drive the restarts one at a time with SplitSeeds — the job
	// service's checkpoint/resume path — and check the best plan agrees
	// bit-for-bit.
	seeds := SplitSeeds(opts.Seed, restarts)
	var best *Plan
	for r := 0; r < restarts; r++ {
		runOpts := opts
		runOpts.Seed = seeds[r]
		plan, err := Optimize(scn, obj, runOpts)
		if err != nil {
			t.Fatalf("restart %d: %v", r, err)
		}
		if best == nil || plan.Cost < best.Cost {
			best = plan
		}
	}
	if best.Cost != want.Cost {
		t.Errorf("per-restart best %v != OptimizeBest %v", best.Cost, want.Cost)
	}
	for i := range want.TransitionMatrix {
		for j := range want.TransitionMatrix[i] {
			if want.TransitionMatrix[i][j] != best.TransitionMatrix[i][j] {
				t.Fatalf("P[%d][%d]: %v != %v", i, j,
					want.TransitionMatrix[i][j], best.TransitionMatrix[i][j])
			}
		}
	}
}

// TestOptimizeProgressCallback: OnProgress fires at the configured
// cadence with monotonically advancing iterations.
func TestOptimizeProgressCallback(t *testing.T) {
	scn, err := PaperTopology(2)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	var updates []Progress
	_, err = Optimize(scn, Objectives{Alpha: 1, Beta: 1e-4}, Options{
		MaxIters: 100, Seed: 5, ProgressEvery: 10,
		OnProgress: func(p Progress) { updates = append(updates, p) },
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if len(updates) == 0 {
		t.Fatal("no progress updates delivered")
	}
	if updates[0].Iteration != 1 {
		t.Errorf("first update at iteration %d, want 1", updates[0].Iteration)
	}
	last := 0
	for _, u := range updates {
		if u.Iteration <= last && u.Iteration != 1 {
			t.Errorf("iterations not advancing: %d after %d", u.Iteration, last)
		}
		if u.Restart != 0 {
			t.Errorf("restart = %d, want 0", u.Restart)
		}
		last = u.Iteration
	}
}
