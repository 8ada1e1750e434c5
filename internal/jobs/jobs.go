// Package jobs is the optimization job service: it owns long-running
// multi-restart coverage optimizations as queued, cancellable,
// checkpointable jobs instead of one-shot CLI invocations.
//
// A Manager holds a bounded FIFO queue and a fixed worker pool. Each job
// runs the restarts of an OptimizeBest-style search one at a time (seeds
// split with coverage.SplitSeeds, so an uninterrupted job reproduces
// coverage.OptimizeBest bit-for-bit), checkpoints after every completed
// restart through the coverage/persist JSON helpers, and samples live
// progress from the descent trace via coverage.Options.OnProgress. A
// Manager restarted on the same checkpoint directory re-queues every
// interrupted job and resumes it from its last completed restart.
//
// Lifecycle:
//
//	queued ──▶ running ──▶ done
//	   │          │  ├───▶ failed
//	   │          │  └───▶ cancelled   (DELETE /jobs/{id})
//	   │          └──────▶ paused      (graceful shutdown; re-queued on restart)
//	   └─────────────────▶ cancelled   (cancel before a worker picks it up)
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/coverage"
	"repro/internal/obs"
)

// Service errors, mapped onto HTTP statuses by the API layer.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: job not found")
	// ErrQueueFull reports that the bounded queue rejected a submission.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrTerminal reports an operation on a job that already finished.
	ErrTerminal = errors.New("jobs: job already finished")
	// ErrShuttingDown reports a submission during shutdown.
	ErrShuttingDown = errors.New("jobs: manager shutting down")
	// ErrNoPlan reports a plan request for a job with no plan yet.
	ErrNoPlan = errors.New("jobs: no plan available yet")
	// ErrSpec reports an invalid job specification.
	ErrSpec = errors.New("jobs: invalid spec")
)

// State is a job lifecycle state.
type State string

// The job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StatePaused    State = "paused"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// valid reports whether s is one of the lifecycle states (used when
// loading checkpoints written by other processes).
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StatePaused, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Spec is everything needed to run one optimization job.
type Spec struct {
	// Scenario is the coverage problem to optimize.
	Scenario coverage.Scenario `json:"scenario"`
	// Objectives weights the optimization criteria.
	Objectives coverage.Objectives `json:"objectives"`
	// Options tunes each restart; Options.Seed is the master seed the
	// per-restart seeds are split from. OnProgress is owned by the
	// manager and ignored if set.
	Options coverage.Options `json:"options"`
	// Restarts is the multi-start count (default 1).
	Restarts int `json:"restarts"`
	// Sensors, when ≥ 2, makes this a fleet job: every restart runs a
	// joint K-sensor optimization (coverage.OptimizeFleetContext) instead
	// of a single-sensor one, and the resulting plan carries the fleet
	// extension. 0 and 1 mean the classic single-sensor job.
	Sensors int `json:"sensors,omitempty"`
	// Responsibility is the optional K×M per-PoI responsibility
	// assignment for a fleet job; nil means the uniform 1/K split.
	Responsibility [][]float64 `json:"responsibility,omitempty"`
}

// fleet reports whether the spec describes a joint multi-sensor job.
func (s Spec) fleet() bool { return s.Sensors >= 2 }

// Progress is a live snapshot of a job's position in its search.
type Progress struct {
	// Restarts is the job's total restart budget.
	Restarts int `json:"restarts"`
	// RestartsDone counts fully completed restarts.
	RestartsDone int `json:"restartsDone"`
	// Restart is the restart currently running (meaningful while the job
	// is running).
	Restart int `json:"restart"`
	// Iteration is the latest sampled optimizer iteration within that
	// restart.
	Iteration int `json:"iteration"`
	// Cost is the penalized cost at the latest sample.
	Cost float64 `json:"cost"`
	// BestCost is the best cost over all completed work, when any.
	BestCost *float64 `json:"bestCost,omitempty"`
}

// View is an immutable snapshot of a job, safe to hold and serialize
// while the job keeps running.
type View struct {
	ID       string     `json:"id"`
	State    State      `json:"state"`
	Scenario string     `json:"scenario"`
	Restarts int        `json:"restarts"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Progress Progress   `json:"progress"`
	// WallClockSec is the job's cumulative running time in seconds,
	// summed over every running span (pause/resume cycles included),
	// live while the job runs.
	WallClockSec float64 `json:"wallClockSec,omitempty"`
	// ItersPerSec is optimizer iterations per wall-clock second:
	// iterations of completed restarts plus the sampled position in the
	// in-flight restart, divided by WallClockSec.
	ItersPerSec float64 `json:"itersPerSec,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// job is the mutable record; every field is guarded by Manager.mu except
// spec and id, which are immutable after Submit.
type job struct {
	id   string
	spec Spec

	state        State
	created      time.Time
	queuedAt     time.Time // last enqueue time, for queue-wait metrics
	deployment   string    // deployment that submitted the job, if any
	started      time.Time // start of the *current* running span
	finished     time.Time
	prog         Progress
	errMsg       string
	plan         *coverage.Plan // best-so-far, or final when done
	restartsDone int
	itersDone    int                // optimizer iterations over completed restarts
	ranSec       float64            // wall-clock seconds of finished running spans
	cancel       context.CancelFunc // non-nil while running
	userCancel   bool
	sharded      bool // runs through the shard protocol (shardrun.go)
	inQueue      bool // sitting on the local worker queue right now
}

// view snapshots the job; callers must hold Manager.mu.
func (j *job) view() View {
	v := View{
		ID:       j.id,
		State:    j.state,
		Scenario: j.spec.Scenario.Name,
		Restarts: j.spec.Restarts,
		Created:  j.created,
		Progress: j.prog,
		Error:    j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	wall := j.ranSec
	iters := j.itersDone
	if j.state == StateRunning && !j.started.IsZero() {
		wall += time.Since(j.started).Seconds()
		iters += j.prog.Iteration
	}
	if wall > 0 {
		v.WallClockSec = wall
		if iters > 0 {
			v.ItersPerSec = float64(iters) / wall
		}
	}
	return v
}

// Config tunes a Manager. The zero value is usable: two workers, a
// 16-deep queue, and no persistence.
type Config struct {
	// Workers is the worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the pending-job queue (default 16).
	QueueDepth int
	// MaxJobWorkers caps each job's descent parallelism
	// (Spec.Options.Workers): requests above the cap — and requests of 0,
	// which would otherwise mean "all of GOMAXPROCS" — are clamped to it
	// at submission, so Workers concurrent jobs cannot oversubscribe the
	// machine. 0 leaves requests untouched. Clamping never changes a
	// job's result: the descent path is bit-identical for every worker
	// count.
	MaxJobWorkers int
	// Dir is the checkpoint directory; empty disables persistence (jobs
	// are lost on process exit). Ignored when Store is set.
	Dir string
	// Store overrides the persistence backend: when non-nil, checkpoints
	// go through it instead of a filesystem store rooted at Dir. Use it
	// to plug a blob/KV backend into the checkpoint path.
	Store Store
	// Logger receives structured job-lifecycle logs (submit, start,
	// restart, checkpoint, finish), each carrying the job ID — and the
	// deployment ID, when the submission context carries one — so a job's
	// whole trail greps as one thread. Nil disables logging.
	Logger *slog.Logger
	// Metrics is the registry the manager's instruments (queue wait, run
	// duration, descent iteration time, line-search probes, checkpoint
	// write latency) register into. Nil disables metrics.
	Metrics *obs.Registry
	// Shard configures distributed restart sharding: when enabled (and a
	// persistence backend exists), every submitted multi-restart job is
	// split into restart-shards any manager sharing the Store can claim
	// through a CAS lease and run; results merge deterministically to
	// the bit-exact single-process answer. See shard.go.
	Shard ShardConfig

	// Test hooks, settable only from inside the package (crash and
	// ordering injection for the shard protocol): testDropLeases makes
	// shutdown keep held leases, simulating a node that died with work
	// in flight; testAfterShardRestart fires after each durably
	// completed shard restart.
	testDropLeases        bool
	testAfterShardRestart func(jobID string, shard, restart int)
}

// jobMetrics bundles the manager's instruments. All obs instruments are
// nil-safe, so the zero jobMetrics simply records nothing.
type jobMetrics struct {
	queueWait   *obs.Histogram
	runSeconds  *obs.Histogram
	iterSeconds *obs.Histogram
	probes      *obs.Histogram
	ckptSeconds *obs.Histogram

	// Shard-protocol instruments (see shard.go / shardrun.go).
	// Fleet-job instruments.
	fleetJobs    *obs.Counter
	fleetSensors *obs.Histogram

	shardClaims     *obs.Counter
	claimSeconds    *obs.Histogram
	shardsDone      *obs.Counter
	merges          *obs.Counter
	mergeSeconds    *obs.Histogram
	shardQueueDepth *obs.Gauge
	leaseRenewals   *obs.Counter
	leaseTakeovers  *obs.Counter
	leaseLosses     *obs.Counter
	leaseActive     *obs.Gauge
}

func newJobMetrics(r *obs.Registry) jobMetrics {
	return jobMetrics{
		queueWait: r.Histogram("coverage_job_queue_wait_seconds",
			"Time jobs spend queued before a worker picks them up.", obs.DefBuckets),
		runSeconds: r.Histogram("coverage_job_run_seconds",
			"Cumulative wall-clock running time of finished jobs.", obs.DefBuckets),
		iterSeconds: r.Histogram("coverage_descent_iteration_seconds",
			"Wall-clock time between successive descent iterations.", obs.DefBuckets),
		probes: r.Histogram("coverage_descent_line_search_probes",
			"Line-search cost evaluations per descent iteration.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		ckptSeconds: r.Histogram("coverage_checkpoint_write_seconds",
			"Job checkpoint write latency.", obs.DefBuckets),
		fleetJobs: r.Counter("fleet_jobs_total",
			"Joint multi-sensor optimization jobs submitted."),
		fleetSensors: r.Histogram("fleet_job_sensors",
			"Fleet size K of submitted fleet jobs.",
			[]float64{2, 3, 4, 6, 8, 12, 16}),
		shardClaims: r.Counter("jobs_shard_claims_total",
			"Restart-shards claimed by this node (first claims and takeovers)."),
		claimSeconds: r.Histogram("jobs_shard_claim_seconds",
			"Latency of one shard-claim scan (state reads + lease CAS).", obs.DefBuckets),
		shardsDone: r.Counter("jobs_shards_completed_total",
			"Restart-shards driven to a terminal state by this node."),
		merges: r.Counter("jobs_shard_merges_total",
			"Deterministic best-of merges this node performed or observed."),
		mergeSeconds: r.Histogram("jobs_shard_merge_seconds",
			"Latency of the shard-result merge (state reads + plan publish + CAS).", obs.DefBuckets),
		shardQueueDepth: r.Gauge("jobs_shard_queue_depth",
			"Claimable shards (open, no live lease) visible in the shared store."),
		leaseRenewals: r.Counter("jobs_lease_renewals_total",
			"Successful shard-lease heartbeat renewals."),
		leaseTakeovers: r.Counter("jobs_lease_takeovers_total",
			"Expired foreign leases this node took over (crash/stall recovery)."),
		leaseLosses: r.Counter("jobs_lease_losses_total",
			"Leases this node lost to takeover mid-shard (renewal CAS failed)."),
		leaseActive: r.Gauge("jobs_lease_active",
			"Shard leases this node currently holds."),
	}
}

// Manager owns the queue, the worker pool and the job table.
type Manager struct {
	cfg  Config
	ctx  context.Context // pool context; cancelled by Shutdown
	stop context.CancelFunc
	wg   sync.WaitGroup
	log  *slog.Logger
	met  jobMetrics

	store Store       // nil disables persistence
	cas   CASStore    // non-nil iff sharding is enabled
	shard ShardConfig // normalized; meaningful iff cas != nil

	// Copied from Config before the workers start (see Config).
	testDropLeases        bool
	testAfterShardRestart func(jobID string, shard, restart int)

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order for List
	queue    chan *job
	seq      int
	closed   bool
	progress func(jobID string, p coverage.Progress)
	onDone   func(jobID string, spec Spec, plan *coverage.Plan)
}

// New builds a Manager, resumes any checkpointed jobs found in cfg.Dir,
// and starts the worker pool.
func New(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:  cfg,
		ctx:  ctx,
		stop: stop,
		log:  obs.Component(cfg.Logger, "jobs"),
		jobs: make(map[string]*job),
	}
	if cfg.Metrics != nil {
		m.met = newJobMetrics(cfg.Metrics)
	}
	switch {
	case cfg.Store != nil:
		m.store = cfg.Store
	case cfg.Dir != "":
		fsStore, err := NewFSStore(cfg.Dir)
		if err != nil {
			stop()
			return nil, err
		}
		m.store = fsStore
	}
	if cfg.Shard.Enabled && m.store != nil {
		m.shard = cfg.Shard.withDefaults()
		m.cas = AsCAS(m.store)
	}
	m.testDropLeases = cfg.testDropLeases
	m.testAfterShardRestart = cfg.testAfterShardRestart
	var resumed []*job
	if m.store != nil {
		var err error
		resumed, err = m.loadCheckpoints()
		if err != nil {
			stop()
			return nil, err
		}
	}
	// Size the queue so every resumable job fits alongside the configured
	// headroom; otherwise New could deadlock re-queueing a large backlog.
	m.queue = make(chan *job, cfg.QueueDepth+len(resumed))
	for _, j := range resumed {
		j.state = StateQueued
		if !m.shardingEnabled() {
			// A sharded checkpoint resumed by a non-sharded manager runs
			// single-process; restarts are bit-exact either way.
			j.sharded = false
		}
		j.inQueue = true
		m.queue <- j
	}
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	if m.shardingEnabled() {
		m.wg.Add(1)
		go m.poller()
	}
	return m, nil
}

// Submit validates the spec and enqueues a new job.
func (m *Manager) Submit(spec Spec) (View, error) {
	return m.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit with a caller context carrying correlation IDs:
// the submission log line inherits the context's request ID, and a
// deployment ID on the context is remembered so every later lifecycle
// line of the job carries it too — the drift → re-opt → swap trail.
func (m *Manager) SubmitCtx(ctx context.Context, spec Spec) (View, error) {
	if spec.Restarts == 0 {
		spec.Restarts = 1
	}
	if spec.Restarts < 0 {
		return View{}, fmt.Errorf("%w: %d restarts", ErrSpec, spec.Restarts)
	}
	if spec.Sensors < 0 {
		return View{}, fmt.Errorf("%w: negative sensors %d", ErrSpec, spec.Sensors)
	}
	if spec.fleet() {
		if err := coverage.ValidateFleet(spec.Scenario, spec.Objectives, spec.Sensors, spec.Responsibility); err != nil {
			return View{}, fmt.Errorf("%w: %v", ErrSpec, err)
		}
	} else {
		if spec.Responsibility != nil {
			return View{}, fmt.Errorf("%w: responsibility set on a single-sensor job", ErrSpec)
		}
		if err := coverage.Validate(spec.Scenario, spec.Objectives); err != nil {
			return View{}, fmt.Errorf("%w: %v", ErrSpec, err)
		}
	}
	if spec.Options.Workers < 0 {
		return View{}, fmt.Errorf("%w: negative workers %d", ErrSpec, spec.Options.Workers)
	}
	if m.cfg.MaxJobWorkers > 0 &&
		(spec.Options.Workers == 0 || spec.Options.Workers > m.cfg.MaxJobWorkers) {
		spec.Options.Workers = m.cfg.MaxJobWorkers
	}
	// The telemetry callbacks are owned by the worker; drop anything the
	// caller smuggled in.
	spec.Options.OnProgress = nil
	spec.Options.OnIteration = nil

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return View{}, ErrShuttingDown
	}
	if len(m.queue) >= m.cfg.QueueDepth {
		m.mu.Unlock()
		return View{}, ErrQueueFull
	}
	m.seq++
	now := time.Now()
	id := fmt.Sprintf("job-%06d", m.seq)
	if m.shardingEnabled() {
		// Node-qualified IDs keep submissions from different managers on
		// one shared store from colliding.
		id = fmt.Sprintf("job-%s-%06d", m.shard.Node, m.seq)
	}
	j := &job{
		id:         id,
		spec:       spec,
		state:      StateQueued,
		created:    now,
		queuedAt:   now,
		deployment: obs.DeploymentID(ctx),
		prog:       Progress{Restarts: spec.Restarts},
		sharded:    m.shardingEnabled(),
		inQueue:    true,
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.queue <- j
	v := j.view()
	m.mu.Unlock()

	m.log.InfoContext(obs.WithJobID(ctx, j.id), "job submitted",
		slog.String("scenario", spec.Scenario.Name),
		slog.Int("restarts", spec.Restarts),
		slog.Int("maxIters", spec.Options.MaxIters),
		slog.Int("sensors", spec.Sensors),
		slog.Bool("sharded", j.sharded))
	if spec.fleet() {
		m.met.fleetJobs.Inc()
		m.met.fleetSensors.Observe(float64(spec.Sensors))
	}
	m.persist(j, true)
	if j.sharded {
		// The shard table goes in last: its presence is what makes other
		// nodes adopt the job, so they never see a partial checkpoint.
		t := newShardTable(j.id, spec.Restarts, m.shard.ShardSize)
		if err := m.store.Put(shardTableBlob(j.id), marshalBlob(t)); err != nil {
			// The local worker loop rebuilds a missing table on claim, so
			// the job still runs; only cross-node discovery is delayed.
			m.log.ErrorContext(obs.WithJobID(ctx, j.id), "shard table write failed",
				slog.String("error", err.Error()))
		}
	}
	return v, nil
}

// SetProgressListener registers fn to receive every sampled progress
// snapshot of every running job, after the job's own record is updated.
// Wire it once, before jobs run; the deploy runtime uses it to stream
// re-optimization progress onto deployment event feeds.
func (m *Manager) SetProgressListener(fn func(jobID string, p coverage.Progress)) {
	m.mu.Lock()
	m.progress = fn
	m.mu.Unlock()
}

// SetDoneListener registers fn to receive every job that finishes in
// state done together with its winning plan — the publish hook the plan
// library uses to absorb completed optimizations. It is invoked
// synchronously from the worker goroutine after the terminal checkpoint
// is written, so a registered library never misses a completion. Wire
// it once, before jobs run.
func (m *Manager) SetDoneListener(fn func(jobID string, spec Spec, plan *coverage.Plan)) {
	m.mu.Lock()
	m.onDone = fn
	m.mu.Unlock()
}

// logCtx builds the background context carrying a job's correlation IDs
// for worker-side log lines.
func (j *job) logCtx() context.Context {
	ctx := obs.WithJobID(context.Background(), j.id)
	if j.deployment != "" {
		ctx = obs.WithDeploymentID(ctx, j.deployment)
	}
	return ctx
}

// Get returns a snapshot of one job. With sharding enabled the lookup
// is cluster-aware: an ID this node has never seen is resolved against
// the shared store, so any node answers for any sharded job.
func (m *Manager) Get(id string) (View, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if ok {
		v := j.view()
		m.mu.Unlock()
		return v, nil
	}
	m.mu.Unlock()
	if j = m.lookupShared(id); j != nil {
		m.mu.Lock()
		v := j.view()
		m.mu.Unlock()
		return v, nil
	}
	return View{}, ErrNotFound
}

// lookupShared adopts a sharded job present in the shared store but
// unknown locally (submitted to another node). Nil when sharding is
// off or the store has no such sharded job.
func (m *Manager) lookupShared(id string) *job {
	if !m.shardingEnabled() {
		return nil
	}
	if _, err := m.store.Get(shardTableBlob(id)); err != nil {
		return nil
	}
	return m.adoptSharded(id)
}

// List returns snapshots of every job in submission order (resumed jobs
// first, ordered by ID).
func (m *Manager) List() []View {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]View, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].view())
	}
	return out
}

// Plan returns the job's best plan so far — the final plan once done,
// the best-so-far checkpoint for a running, paused or cancelled job.
// Cluster-aware like Get: a sharded job's merged plan is served from
// the shared store by any node.
func (m *Manager) Plan(id string) (*coverage.Plan, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		if j = m.lookupShared(id); j == nil {
			return nil, ErrNotFound
		}
	}
	m.mu.Lock()
	plan := j.plan
	sharded := j.sharded
	m.mu.Unlock()
	if plan == nil && sharded {
		// In-flight sharded job: the cluster-wide best so far is the
		// winner over the currently terminal-or-partial shard records.
		if t, err := m.loadShardTable(id); err == nil {
			plan = m.bestShardPlan(t)
			if plan != nil {
				m.mu.Lock()
				if j.plan == nil {
					j.plan = plan
				}
				m.mu.Unlock()
			}
		}
	}
	if plan == nil {
		return nil, ErrNoPlan
	}
	return plan, nil
}

// bestShardPlan reduces the current shard states to the best plan
// recorded so far, terminal or not.
func (m *Manager) bestShardPlan(t *shardTable) *coverage.Plan {
	results := make([]shardResult, 0, t.Shards)
	for k := 0; k < t.Shards; k++ {
		s := m.loadShardState(t, k)
		results = append(results, shardResult{
			Shard: k, Failed: s.State == shardFailed,
			BestCost: s.BestCost, BestRestart: s.BestRestart,
		})
	}
	winner, ok := pickShardWinner(results)
	if !ok {
		return nil
	}
	p, err := m.readShardPlan(t.Job, winner.Shard)
	if err != nil {
		return nil
	}
	return p
}

// Cancel stops a queued or running job. Cancelling a running job signals
// its context; the worker then records the best-so-far plan and marks the
// job cancelled.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	switch j.state {
	case StateQueued, StatePaused:
		if j.sharded {
			// Another node may be working this job right now: the terminal
			// transition must go through the shared store's CAS so every
			// node observes it. Running nodes stop at their next shard
			// boundary.
			j.userCancel = true
			m.mu.Unlock()
			m.log.InfoContext(j.logCtx(), "sharded job cancel requested")
			return m.cancelSharded(j)
		}
		j.state = StateCancelled
		j.userCancel = true
		j.finished = time.Now()
		m.mu.Unlock()
		m.log.InfoContext(j.logCtx(), "job cancelled before running")
		m.persist(j, false)
		return nil
	case StateRunning:
		j.userCancel = true
		cancel := j.cancel
		m.mu.Unlock()
		m.log.InfoContext(j.logCtx(), "job cancel requested")
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		m.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.state)
	}
}

// Stats summarizes the manager for health checks.
type Stats struct {
	Workers    int           `json:"workers"`
	QueueDepth int           `json:"queueDepth"`
	QueueLen   int           `json:"queueLen"`
	Jobs       map[State]int `json:"jobs"`
}

// Stat returns current counts by state plus queue occupancy.
func (m *Manager) Stat() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Workers:    m.cfg.Workers,
		QueueDepth: m.cfg.QueueDepth,
		QueueLen:   len(m.queue),
		Jobs:       make(map[State]int),
	}
	for _, j := range m.jobs {
		s.Jobs[j.state]++
	}
	return s
}

// Shutdown stops accepting submissions, cancels every running job so it
// checkpoints and parks as paused, and waits (bounded by ctx) for the
// worker pool to drain. After Shutdown returns nil, no manager goroutine
// is left running.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.stop()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: shutdown: %w", ctx.Err())
	}
}

// worker pulls jobs off the queue until the pool context is cancelled.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.mu.Lock()
			sharded := j.sharded
			m.mu.Unlock()
			if sharded {
				m.runShardedJob(j)
			} else {
				m.runJob(j)
			}
		}
	}
}

// optimizeSpec runs one restart of a job — the single place that decides
// between the single-sensor and the joint fleet optimizer, so the local
// worker loop and the shard runner dispatch identically.
func optimizeSpec(ctx context.Context, spec Spec, opts coverage.Options) (*coverage.Plan, error) {
	if spec.fleet() {
		return coverage.OptimizeFleetContext(ctx, spec.Scenario, spec.Objectives, opts,
			spec.Sensors, spec.Responsibility)
	}
	return coverage.OptimizeContext(ctx, spec.Scenario, spec.Objectives, opts)
}

// restartOptions builds one restart's options from the job's: the
// restart's split seed, progress forwarded onto the job, and — with
// metrics on — the iteration hook that feeds the iteration-time and
// probe histograms. The local worker loop and the shard runner share it.
func (m *Manager) restartOptions(j *job, opts coverage.Options, seed uint64, restart int) coverage.Options {
	opts.Seed = seed
	opts.OnProgress = func(p coverage.Progress) {
		m.noteProgress(j, restart, p)
	}
	if m.met.iterSeconds != nil {
		// Iteration timing lives here, not in the descent loop: the hook
		// measures wall-clock between successive events, so the hot path
		// itself never calls time.Now.
		var lastIter time.Time
		opts.OnIteration = func(ev coverage.IterationEvent) {
			now := time.Now()
			if !lastIter.IsZero() {
				m.met.iterSeconds.Observe(now.Sub(lastIter).Seconds())
			}
			lastIter = now
			if ev.Probes > 0 {
				m.met.probes.Observe(float64(ev.Probes))
			}
		}
	}
	return opts
}

// runJob drives one job: restarts run sequentially with OptimizeBest's
// seed split, the best plan is checkpointed after every completed
// restart, and cancellation is classified as user cancel (terminal) or
// shutdown (paused, resumable).
func (m *Manager) runJob(j *job) {
	m.mu.Lock()
	j.inQueue = false
	if j.state != StateQueued || m.ctx.Err() != nil {
		// Cancelled while queued, or the pool is draining: leave the
		// checkpointed state as-is.
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.ctx)
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	wait := j.started.Sub(j.queuedAt).Seconds()
	spec := j.spec
	start := j.restartsDone
	best := j.plan
	m.mu.Unlock()
	defer cancel()
	if wait >= 0 {
		m.met.queueWait.Observe(wait)
	}
	lctx := j.logCtx()
	m.log.InfoContext(lctx, "job started",
		slog.Int("fromRestart", start),
		slog.Float64("queueWaitSec", wait))

	// best holds the winner over *completed* restarts only. The paused
	// checkpoint must exclude in-flight partial work: resuming re-runs the
	// interrupted restart in full, and a partial plan that ties the full
	// rerun on cost would otherwise survive the strict-< comparison with a
	// different matrix than an uninterrupted OptimizeBest produces.
	seeds := coverage.SplitSeeds(spec.Options.Seed, spec.Restarts)
	for r := start; r < spec.Restarts; r++ {
		if ctx.Err() != nil {
			break
		}
		plan, err := optimizeSpec(ctx, spec, m.restartOptions(j, spec.Options, seeds[r], r))
		if err != nil {
			if ctx.Err() != nil {
				// Interrupted mid-restart; plan is that run's best-so-far.
				m.settleInterrupted(j, best, plan)
				return
			}
			m.finish(j, StateFailed, best, err.Error())
			return
		}
		// Strict < preserves OptimizeBest's first-wins tie-breaking.
		if plan != nil && (best == nil || plan.Cost < best.Cost) {
			best = plan
		}
		iters := 0
		if plan != nil {
			iters = plan.Iterations
		}
		m.completeRestart(j, r+1, best, iters)
		if plan != nil {
			m.log.InfoContext(lctx, "restart complete",
				slog.Int("restart", r),
				slog.Int("iterations", plan.Iterations),
				slog.Float64("cost", plan.Cost))
		}
	}
	if ctx.Err() != nil {
		m.settleInterrupted(j, best, nil)
		return
	}
	m.finish(j, StateDone, best, "")
}

// settleInterrupted routes a context-cancelled job: a user cancel is
// terminal and keeps the freshest work (including the interrupted
// restart's partial plan), while a shutdown parks the job as paused with
// only completed-restart results so the resume reproduces an
// uninterrupted run bit-for-bit.
func (m *Manager) settleInterrupted(j *job, best, partial *coverage.Plan) {
	m.mu.Lock()
	user := j.userCancel
	m.mu.Unlock()
	if user {
		if partial != nil && (best == nil || partial.Cost < best.Cost) {
			best = partial
		}
		m.finish(j, StateCancelled, best, "")
		return
	}
	m.pause(j, best)
}

// noteProgress records a sampled descent-trace point and fans it out to
// the registered listener.
func (m *Manager) noteProgress(j *job, restart int, p coverage.Progress) {
	m.mu.Lock()
	j.prog.Restart = restart
	j.prog.Iteration = p.Iteration
	j.prog.Cost = p.Cost
	fn := m.progress
	m.mu.Unlock()
	if fn != nil {
		p.Restart = restart
		fn(j.id, p)
	}
}

// completeRestart advances the job's checkpointable progress and writes
// the periodic checkpoint. iters is the finished restart's iteration
// count; the in-flight sample resets with it so view() never counts the
// same restart twice.
func (m *Manager) completeRestart(j *job, done int, best *coverage.Plan, iters int) {
	m.mu.Lock()
	j.restartsDone = done
	j.itersDone += iters
	j.plan = best
	j.prog.RestartsDone = done
	j.prog.Iteration = 0
	if best != nil {
		c := best.Cost
		j.prog.BestCost = &c
	}
	m.mu.Unlock()
	m.persist(j, false)
}

// finish moves the job to a terminal state and checkpoints it.
func (m *Manager) finish(j *job, state State, best *coverage.Plan, errMsg string) {
	m.mu.Lock()
	j.state = state
	j.finished = time.Now()
	if !j.started.IsZero() {
		j.ranSec += j.finished.Sub(j.started).Seconds()
	}
	ran := j.ranSec
	j.plan = best
	j.errMsg = errMsg
	j.cancel = nil
	if best != nil {
		c := best.Cost
		j.prog.BestCost = &c
	}
	m.mu.Unlock()
	m.met.runSeconds.Observe(ran)
	attrs := []any{
		slog.String("state", string(state)),
		slog.Float64("ranSec", ran),
	}
	if best != nil {
		attrs = append(attrs, slog.Float64("cost", best.Cost))
	}
	if errMsg != "" {
		attrs = append(attrs, slog.String("error", errMsg))
		m.log.ErrorContext(j.logCtx(), "job finished", attrs...)
	} else {
		m.log.InfoContext(j.logCtx(), "job finished", attrs...)
	}
	m.persist(j, false)
	if state == StateDone && best != nil {
		m.mu.Lock()
		fn := m.onDone
		m.mu.Unlock()
		if fn != nil {
			fn(j.id, j.spec, best)
		}
	}
}

// pause parks an interrupted job so a restarted manager resumes it from
// its last completed restart.
func (m *Manager) pause(j *job, best *coverage.Plan) {
	m.mu.Lock()
	j.state = StatePaused
	if !j.started.IsZero() {
		j.ranSec += time.Since(j.started).Seconds()
	}
	j.plan = best
	j.cancel = nil
	if best != nil {
		c := best.Cost
		j.prog.BestCost = &c
	}
	done := j.restartsDone
	m.mu.Unlock()
	m.log.InfoContext(j.logCtx(), "job paused",
		slog.Int("restartsDone", done))
	m.persist(j, false)
}

// seqFromID recovers the numeric suffix of a job ID so a resumed manager
// keeps allocating fresh IDs.
func seqFromID(id string) int {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil {
		return 0
	}
	return n
}

// sortByID orders jobs by their numeric suffix (submission order),
// breaking cross-node sequence ties by full ID so every node lists a
// shared store in the same order.
func sortByID(js []*job) {
	sort.Slice(js, func(a, b int) bool {
		sa, sb := seqFromID(js[a].id), seqFromID(js[b].id)
		if sa != sb {
			return sa < sb
		}
		return js[a].id < js[b].id
	})
}
