package descent

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/topology"
)

// TestRunContextCancelMidRun: cancelling mid-run must return promptly
// with the best-so-far result rather than running out the full budget.
func TestRunContextCancelMidRun(t *testing.T) {
	m := model(t, topology.Topology3(), 1, 1e-4)
	opt, err := newSingle(m, Options{
		Variant:  Perturbed,
		MaxIters: 50_000_000, // far beyond anything that finishes in a test
		// Never stall out: the run must end because of the context alone.
		StallIters: 50_000_000,
		Seed:       7,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	res, err := opt.RunContext(ctx)
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned nil result")
	}
	if res.P == nil || res.Eval == nil {
		t.Fatal("best-so-far result is missing P or Eval")
	}
	if res.Iters <= 0 {
		t.Errorf("Iters = %d, want > 0 (run should have made progress before cancel)", res.Iters)
	}
	if res.Converged {
		t.Error("cancelled run reported Converged")
	}
	// "Promptly": one iteration is microseconds at paper scale, so even
	// with scheduler noise the return should be well under a second after
	// the 50ms cancel.
	if elapsed > 2*time.Second {
		t.Errorf("cancel took %v to take effect", elapsed)
	}
}

// TestRunContextAlreadyCancelled: a context cancelled before the run
// starts yields no result at all.
func TestRunContextAlreadyCancelled(t *testing.T) {
	m := model(t, topology.Topology2(), 1, 1e-4)
	opt, err := newSingle(m, Options{Variant: Adaptive, MaxIters: 100, Seed: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := opt.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("res = %+v, want nil for a pre-cancelled context", res)
	}
}

// TestRunContextUncancelledMatchesRun: with a background context the
// context-aware path must be bit-for-bit identical to Run (same seeds,
// same arithmetic).
func TestRunContextUncancelledMatchesRun(t *testing.T) {
	m := model(t, topology.Topology2(), 1, 1e-4)
	opts := Options{Variant: Perturbed, MaxIters: 120, Seed: 11}

	optA, err := newSingle(m, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	plain, err := optA.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	optB, err := newSingle(m, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctxed, err := optB.RunContext(context.Background())
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if plain.Eval.U != ctxed.Eval.U {
		t.Errorf("U: %v (Run) != %v (RunContext)", plain.Eval.U, ctxed.Eval.U)
	}
	if plain.Iters != ctxed.Iters {
		t.Errorf("Iters: %d != %d", plain.Iters, ctxed.Iters)
	}
	for i := 0; i < plain.P.Rows(); i++ {
		for j := 0; j < plain.P.Cols(); j++ {
			if plain.P.At(i, j) != ctxed.P.At(i, j) {
				t.Fatalf("P[%d][%d]: %v != %v", i, j, plain.P.At(i, j), ctxed.P.At(i, j))
			}
		}
	}
}
