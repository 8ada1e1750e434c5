package descent

import (
	"context"
	"sync"
)

// Fan runs the independent restarts of a multi-start search, up to a
// fixed number at a time: the scheduler behind the best-of searches of
// the coverage package. Every restart builds its own optimizer and
// shares only the immutable objective, so how many run at
// once changes no restart's result; callers keep results by restart
// index and reduce them in restart order.
//
// A Fan is driven by one goroutine at a time.
type Fan struct {
	width         int
	started, peak int
}

// newFan returns a fan of the given width, clamped to at least one.
func newFan(width int) *Fan {
	return &Fan{width: max(1, width)}
}

// Width returns how many restarts the fan runs at once.
func (f *Fan) Width() int { return f.width }

// Started returns how many restarts the fan has started over all its
// Runs.
func (f *Fan) Started() int { return f.started }

// Peak returns the most restarts the fan has had in flight at once over
// all its Runs, so tests can check that a fan really ran restarts
// concurrently.
func (f *Fan) Peak() int { return f.peak }

// Run calls run(r) for r = 0, 1, …, n−1, starting the calls in ascending
// order with at most the fan's width in flight; a width-one fan makes
// them in turn on the calling goroutine. Run starts no further restart
// once ctx is done or a call has returned an error, and returns after
// every started call has returned. Its error is that of the
// lowest-indexed restart that failed, where a restart left unstarted
// because ctx ended fails with ctx.Err(): the error a sequential loop
// that stops at its first failure returns.
func (f *Fan) Run(ctx context.Context, n int, run func(r int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var (
		mu             sync.Mutex
		next           int
		inFlight, peak int
		stop           bool
	)
	worker := func() {
		for {
			mu.Lock()
			if stop || next == n {
				mu.Unlock()
				return
			}
			if err := ctx.Err(); err != nil {
				errs[next] = err
				stop = true
				mu.Unlock()
				return
			}
			r := next
			next++
			inFlight++
			peak = max(peak, inFlight)
			mu.Unlock()

			err := run(r)

			mu.Lock()
			inFlight--
			if err != nil {
				errs[r] = err
				stop = true
			}
			mu.Unlock()
		}
	}
	w := min(f.width, n)
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	f.started += next
	f.peak = max(f.peak, peak)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
