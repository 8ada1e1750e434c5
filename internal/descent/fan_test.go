package descent

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestNewRestartFanWidth pins the restart fan's width: min(workers, n)
// restarts at once at every chain order, GOMAXPROCS for zero workers,
// and one at a time for Workers one or below.
func TestNewRestartFanWidth(t *testing.T) {
	for _, tc := range []struct{ workers, n, width int }{
		{1, 3, 1},
		{2, 3, 2},
		{4, 3, 3},
		{4, 8, 4},
		{2, 1, 1},
		{-1, 3, 1},
	} {
		if got := NewRestartFan(tc.workers, tc.n).Width(); got != tc.width {
			t.Errorf("NewRestartFan(%d, %d) width %d, want %d", tc.workers, tc.n, got, tc.width)
		}
	}
	if got, want := NewRestartFan(0, 64).Width(), min(runtime.GOMAXPROCS(0), 64); got != want {
		t.Errorf("Workers 0: width %d, want GOMAXPROCS-bound %d", got, want)
	}
}

// TestFanRunsEveryRestartOnce: every index runs exactly once, with the
// first width restarts in flight together.
func TestFanRunsEveryRestartOnce(t *testing.T) {
	const n, width = 7, 3
	var (
		mu   sync.Mutex
		runs = make([]int, n)
		gate sync.WaitGroup
	)
	gate.Add(width)
	fan := newFan(width)
	err := fan.Run(context.Background(), n, func(r int) error {
		if r < width {
			// Hold the first restarts until all of them are in flight.
			gate.Done()
			gate.Wait()
		}
		mu.Lock()
		runs[r]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for r, c := range runs {
		if c != 1 {
			t.Errorf("restart %d ran %d times", r, c)
		}
	}
	if fan.Started() != n || fan.Peak() != width {
		t.Errorf("started %d, peak %d; want %d, %d", fan.Started(), fan.Peak(), n, width)
	}
}

// TestFanLowestIndexedError: after a failure no restart starts, and the
// error returned is the lowest-indexed failure even when a later restart
// failed first.
func TestFanLowestIndexedError(t *testing.T) {
	errLow, errHigh := errors.New("restart 1"), errors.New("restart 2")
	highFailed := make(chan struct{})
	fan := newFan(2)
	err := fan.Run(context.Background(), 6, func(r int) error {
		switch r {
		case 1:
			<-highFailed
			return errLow
		case 2:
			close(highFailed)
			return errHigh
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want %v", err, errLow)
	}
	if fan.Started() != 3 {
		t.Errorf("started %d restarts, want 3 (none after the failure)", fan.Started())
	}
}

// TestFanStopsOnCancel: once the context ends no restart starts, and an
// unstarted restart reports ctx.Err().
func TestFanStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	fan := newFan(1)
	err := fan.Run(ctx, 5, func(r int) error {
		if r == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fan.Started() != 2 {
		t.Errorf("started %d restarts, want 2", fan.Started())
	}
}

// TestPerturbedRunAllocsFlat pins allocation-free best tracking: a
// perturbed run allocates the same at 50 and at 400 iterations, so
// neither an iteration nor a new best iterate allocates.
func TestPerturbedRunAllocsFlat(t *testing.T) {
	m := goldenModel(t)
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(2, func() {
			opt, err := newSingle(m, Options{
				Variant: Perturbed, MaxIters: iters, Seed: 5, StallIters: 10 * iters,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := opt.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(50), allocs(400); short != long {
		t.Errorf("perturbed run allocates %v at 50 iterations but %v at 400", short, long)
	}
}
