// Package par provides a small deterministic fork-join pool for
// partitioned numeric work, such as the per-sensor trajectory unrolls of
// a fleet simulation.
//
// The pool spreads such work across cores while staying bit-for-bit
// identical to the serial code path. It therefore offers exactly one
// primitive: Run splits n items into at most Workers
// contiguous spans — a pure function of (n, workers), never of timing —
// and blocks until every span has been processed. Each span is owned by
// one logical worker, so a kernel that writes only to slots inside its
// span and folds them in ascending index order performs the same
// floating-point operations in the same order as a serial sweep,
// regardless of how the spans are scheduled onto OS threads.
//
// A Pool with one worker (or a nil *Pool) never starts a goroutine: Run
// degenerates to a direct call, the exact serial code path.
package par

// Task is a unit of partitionable work. Run processes the half-open span
// [lo, hi) as logical worker w; w indexes per-worker scratch, and spans
// handed to distinct w never overlap. Implementations must not call back
// into the pool that is running them (the pool is not reentrant).
type Task interface {
	Run(w, lo, hi int)
}

// span is one dispatched unit: a task plus the slice of work it owns.
type span struct {
	task   Task
	w      int
	lo, hi int
}

// Pool is a fixed-size set of persistent worker goroutines. Goroutines
// start lazily on the first parallel Run and are torn down by Stop; a
// stopped pool restarts transparently on its next Run, so Stop is safe to
// call between uses, and an idle pool need hold no goroutines.
//
// A Pool is driven by one goroutine at a time: Run and Stop must not be
// called concurrently with each other.
type Pool struct {
	workers int
	cmds    chan span
	done    chan any
	started bool
}

// New returns a pool of the given logical width. Widths below one are
// clamped to one (a purely serial pool).
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's logical width. A nil pool has width one.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Run partitions n items into contiguous ascending spans and executes t
// over all of them, blocking until the last span completes. The calling
// goroutine executes span 0 itself, so a width-w pool occupies w OS-level
// workers including the caller. Panics from any span are re-raised here
// after every span has finished, keeping the pool reusable.
//
// The partition assigns ⌈n/w⌉ items to the first n mod w spans and ⌊n/w⌋
// to the rest, with w capped at n — deterministic for fixed (n, width).
func (p *Pool) Run(n int, t Task) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		t.Run(0, 0, n)
		return
	}
	if !p.started {
		p.start()
	}
	base, rem := n/w, n%w
	end0 := base
	if rem > 0 {
		end0++
	}
	lo := end0
	for i := 1; i < w; i++ {
		size := base
		if i < rem {
			size++
		}
		p.cmds <- span{task: t, w: i, lo: lo, hi: lo + size}
		lo += size
	}
	callerPanic := runSpan(span{task: t, w: 0, lo: 0, hi: end0})
	var workerPanic any
	for i := 1; i < w; i++ {
		if v := <-p.done; v != nil && workerPanic == nil {
			workerPanic = v
		}
	}
	if callerPanic != nil {
		panic(callerPanic)
	}
	if workerPanic != nil {
		panic(workerPanic)
	}
}

// Stop tears down the worker goroutines. The pool restarts lazily on its
// next Run. Calling Stop on an idle, never-started, or nil pool is a
// no-op.
func (p *Pool) Stop() {
	if p == nil || !p.started {
		return
	}
	close(p.cmds)
	p.started = false
}

// start spins up the persistent workers. Channels are buffered to the
// pool width so dispatch and completion never block the producer behind a
// slow consumer.
func (p *Pool) start() {
	p.cmds = make(chan span, p.workers)
	p.done = make(chan any, p.workers)
	for i := 1; i < p.workers; i++ {
		go worker(p.cmds, p.done)
	}
	p.started = true
}

// worker drains spans until the command channel closes. The channels are
// passed by value so a worker from a previous start never touches the
// pool's current fields (Stop + restart swaps them).
func worker(cmds <-chan span, done chan<- any) {
	for s := range cmds {
		done <- runSpan(s)
	}
}

// runSpan executes one span, converting a panic into a value so the
// fork-join in Run can re-raise it instead of deadlocking.
func runSpan(s span) (v any) {
	defer func() { v = recover() }()
	s.task.Run(s.w, s.lo, s.hi)
	return nil
}
