package coverage

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/descent"
)

// newRestartFan builds the scheduler of a best-of search. It is a
// variable so tests can keep the fan and read its Peak.
var newRestartFan = descent.NewRestartFan

// restart performs one restart of a best-of search with the given seed,
// passing every iteration record to hook (nil when the caller set no
// hooks) and returning its best-so-far result with a cancellation
// error, as the descent runs it wraps do.
type restart func(ctx context.Context, seed uint64, hook func(descent.IterRecord)) (*result, error)

// bestOf runs one restart per seed and returns the lowest-cost result,
// reducing in restart order with strict < so the first restart wins a
// tie. Up to opts.Workers restarts run at once (descent.NewRestartFan);
// the result and the hook stream are bit for bit what running them one
// after another produces. On a non-cancellation error bestOf returns
// the error of the lowest-indexed restart that failed. On cancellation
// it starts no further restart and returns the best result across the
// restarts that made progress (nil when none did) with the error.
func bestOf(ctx context.Context, opts Options, seeds []uint64, run restart) (*result, error) {
	n := len(seeds)
	results := make([]*result, n)
	hooks := newHookStream(opts, n)
	err := newRestartFan(opts.Workers, n).Run(ctx, n, func(r int) error {
		res, err := run(ctx, seeds[r], hooks.hook(r))
		results[r] = res
		hooks.finish(r, err != nil)
		return err
	})
	if err != nil {
		err = fmt.Errorf("coverage: %w", err)
		if ctx.Err() == nil {
			return nil, err
		}
	}
	var best *result
	for _, res := range results {
		if res != nil && (best == nil || res.Eval.U < best.Eval.U) {
			best = res
		}
	}
	return best, err
}

// hookRec is the compact iteration record a restart buffers until its
// events can be delivered.
type hookRec struct {
	u, deltaC, eBar, step float64
	iter                  int
	probes                int32
	accepted              bool
}

// hookStream delivers the OnIteration and OnProgress events of a best-of
// search in exactly the order a sequential run of its restarts emits
// them, and never concurrently. The lowest unfinished restart, the head,
// calls the hooks directly. Later restarts buffer their records; when
// the head finishes, its goroutine flushes the buffers of the restarts
// after it in order and hands the head on to the first one still
// running. After a restart fails, nothing later is delivered, as a
// sequential run stops there.
type hookStream struct {
	onIteration func(IterationEvent)
	onProgress  func(Progress)
	every       int

	mu    sync.Mutex
	head  int         // lowest restart whose events are not all delivered
	cut   int         // restarts from cut on are never delivered
	ended []bool      // restart r has returned
	bufs  [][]hookRec // records of restarts after the head
}

// newHookStream returns the stream for an n-restart search, or nil when
// opts sets no hook.
func newHookStream(opts Options, n int) *hookStream {
	if opts.OnIteration == nil && opts.OnProgress == nil {
		return nil
	}
	every := opts.ProgressEvery
	if every <= 0 {
		every = DefaultProgressEvery
	}
	return &hookStream{
		onIteration: opts.OnIteration,
		onProgress:  opts.OnProgress,
		every:       every,
		cut:         n,
		ended:       make([]bool, n),
		bufs:        make([][]hookRec, n),
	}
}

// hook returns restart r's iteration hook, nil on a nil stream.
func (s *hookStream) hook(r int) func(descent.IterRecord) {
	if s == nil {
		return nil
	}
	e := &restartEmitter{s: s, r: r}
	return e.emit
}

// restartEmitter feeds one restart's records into the stream; only the
// restart's own goroutine uses it.
type restartEmitter struct {
	s      *hookStream
	r      int
	direct bool // the restart is the head: deliver without the lock
}

func (e *restartEmitter) emit(rec descent.IterRecord) {
	h := hookRec{
		u: rec.U, deltaC: rec.DeltaC, eBar: rec.EBar, step: rec.Step,
		iter: rec.Iter, probes: int32(rec.Probes), accepted: rec.Accepted,
	}
	if e.direct {
		e.s.deliver(e.r, h)
		return
	}
	s := e.s
	s.mu.Lock()
	if s.head == e.r {
		// The head is handed on only once this restart's buffer is
		// empty, so everything before h has been delivered.
		s.mu.Unlock()
		e.direct = true
		s.deliver(e.r, h)
		return
	}
	if e.r < s.cut {
		s.bufs[e.r] = append(s.bufs[e.r], h)
	}
	s.mu.Unlock()
}

// finish records that restart r has returned, failed or not. When r is
// the head, the calling goroutine delivers the buffered events of every
// restart after it that has also returned, then those buffered so far by
// the first one still running, which becomes the head.
func (s *hookStream) finish(r int, failed bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.ended[r] = true
	if failed {
		s.cut = min(s.cut, r+1)
	}
	if r != s.head {
		s.mu.Unlock()
		return
	}
	for next := r + 1; next < s.cut; {
		if buf := s.bufs[next]; buf != nil {
			// Deliver outside the lock; the head stays on a returned
			// restart meanwhile, so no other goroutine delivers.
			s.bufs[next] = nil
			s.mu.Unlock()
			for _, h := range buf {
				s.deliver(next, h)
			}
			s.mu.Lock()
			continue
		}
		s.head = next
		if !s.ended[next] {
			s.mu.Unlock()
			return
		}
		next++
	}
	s.head = s.cut
	s.mu.Unlock()
}

// deliver calls the hooks for one record of restart r, sampling
// OnProgress at the first iteration and every ProgressEvery-th.
func (s *hookStream) deliver(r int, h hookRec) {
	iter := h.iter
	if s.onIteration != nil {
		s.onIteration(IterationEvent{
			Restart:   r,
			Iteration: iter,
			Cost:      h.u,
			DeltaC:    h.deltaC,
			EBar:      h.eBar,
			Step:      h.step,
			Accepted:  h.accepted,
			Probes:    int(h.probes),
		})
	}
	if s.onProgress != nil && (iter == 1 || iter%s.every == 0) {
		s.onProgress(Progress{
			Restart:   r,
			Iteration: iter,
			Cost:      h.u,
			DeltaC:    h.deltaC,
			EBar:      h.eBar,
		})
	}
}
