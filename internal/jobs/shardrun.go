package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"strings"
	"sync"
	"time"

	"repro/coverage"
)

// This file is the manager side of the shard protocol, the one job
// lifecycle: the worker loop that claims and runs shards, the heartbeat
// that keeps a claim alive, the poller that discovers foreign jobs and
// re-enqueues parked ones, and the CAS-guarded merge that ends a job
// exactly once cluster-wide. The pure protocol pieces (blob formats,
// lease CAS, winner reduction) live in shard.go.

// runShardedJob drives one job from this node's worker pool: claim a
// shard, run it restart by restart with per-restart durable progress,
// repeat until no shard is claimable. When every shard is terminal the
// job merges; when other nodes still hold live leases the job parks
// back to queued and the poller re-enqueues it once there is something
// to do.
func (m *Manager) runShardedJob(j *job) {
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
	m.mu.Unlock()
	defer cancel()
	if wait >= 0 {
		m.met.queueWait.Observe(wait)
	}
	lctx := j.logCtx()

	t, err := m.loadShardTable(j.id)
	if errors.Is(err, fs.ErrNotExist) {
		// Submit failed to write the shard table, or the blob was lost:
		// rebuild it from the spec — the layout is a pure function of
		// (id, restarts, shard size).
		nt := m.layout(j.id, j.spec.Restarts)
		if err = m.store.Put(shardTableBlob(j.id), marshalBlob(nt)); err == nil {
			t = &nt
		}
	}
	if err != nil {
		m.log.ErrorContext(lctx, "shard table unusable", slog.String("error", err.Error()))
		m.parkSharded(j)
		return
	}
	m.refreshShardProgress(j, t)
	m.mu.Lock()
	from := j.restartsDone
	m.mu.Unlock()
	m.log.InfoContext(lctx, "job started",
		slog.Int("fromRestart", from),
		slog.Float64("queueWaitSec", wait))

	var partial *coverage.Plan
	for ctx.Err() == nil {
		if m.syncSharedMeta(j) {
			return // another node cancelled or merged the job
		}
		claimStart := time.Now()
		k, lease, state := m.claimShard(j, t)
		if k < 0 {
			if m.allShardsTerminal(t) {
				m.finishSharded(j, t)
				return
			}
			// Live foreign leases cover every open shard: nothing to do
			// here until one completes or expires. The poller re-enqueues.
			m.parkSharded(j)
			return
		}
		m.met.shardClaims.Inc()
		m.met.claimSeconds.Observe(time.Since(claimStart).Seconds())
		partial = m.runOneShard(ctx, j, t, k, lease, state)
	}
	m.settleShardedInterrupted(j, t, partial)
}

// claimShard scans the table in shard order and returns the first
// shard whose lease this node wins, or -1 when every open shard is
// terminal or foreign-held.
func (m *Manager) claimShard(j *job, t *shardTable) (int, *heldLease, *shardState) {
	for k := 0; k < t.Shards; k++ {
		s := m.loadShardState(t, k)
		if s.terminal() {
			continue
		}
		h, err := m.tryAcquireLease(t.Job, k)
		if err != nil {
			m.log.ErrorContext(j.logCtx(), "lease acquire failed",
				slog.Int("shard", k), slog.String("error", err.Error()))
			continue
		}
		if h != nil {
			return k, h, s
		}
	}
	return -1, nil, nil
}

// allShardsTerminal reports whether every shard has a durable terminal
// state.
func (m *Manager) allShardsTerminal(t *shardTable) bool {
	for k := 0; k < t.Shards; k++ {
		if !m.loadShardState(t, k).terminal() {
			return false
		}
	}
	return true
}

// runOneShard executes shard k's remaining restarts under the held
// lease, checkpointing plan-then-state after every completed restart.
// A heartbeat goroutine renews the lease at TTL/3; if a renewal CAS
// fails the lease was taken over and the shard context is cancelled so
// this node stops before writing anything further. All shard writes
// are deterministic functions of (job, shard, restarts-done), so even
// the unavoidable instant between a takeover and the old holder
// noticing cannot corrupt state: a stale write carries exactly the
// progress the new holder would record at that point. When the run is
// cut short it returns the interrupted restart's best-so-far plan,
// which a user cancel keeps.
func (m *Manager) runOneShard(ctx context.Context, j *job, t *shardTable, k int, h *heldLease, s *shardState) *coverage.Plan {
	shardCtx, cancelShard := context.WithCancel(ctx)
	defer cancelShard()
	lctx := j.logCtx()

	lost := false // set by the heartbeat on renewal failure
	var mu sync.Mutex
	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		ticker := time.NewTicker(m.shard.LeaseTTL / 3)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-shardCtx.Done():
				return
			case <-ticker.C:
				if err := m.renewLease(h); err != nil {
					m.met.leaseLosses.Inc()
					m.log.ErrorContext(lctx, "lease lost",
						slog.Int("shard", k), slog.String("error", err.Error()))
					mu.Lock()
					lost = true
					mu.Unlock()
					cancelShard()
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		hb.Wait()
		mu.Lock()
		wasLost := lost
		mu.Unlock()
		if !wasLost {
			m.releaseLease(h)
		} else {
			m.met.leaseActive.Add(-1)
		}
	}()

	m.log.InfoContext(lctx, "shard claimed",
		slog.Int("shard", k), slog.Int("fromRestart", s.Lo+s.Done),
		slog.Int("epoch", h.lease.Epoch))

	// Resume sanity: a shard state that claims progress must have a
	// readable plan whenever it recorded a best. A torn plan blob means
	// the whole shard re-runs — determinism repairs it.
	if s.Done > 0 && s.BestCost != nil {
		if _, err := m.readShardPlan(t.Job, k); err != nil {
			m.log.ErrorContext(lctx, "shard plan unreadable; re-running shard",
				slog.Int("shard", k), slog.String("error", err.Error()))
			*s = *t.pending(k)
		}
	}

	spec := j.spec
	seeds := coverage.SplitSeeds(spec.Options.Seed, spec.Restarts)
	last := time.Now()
	for r := s.Lo + s.Done; r < s.Hi; r++ {
		if shardCtx.Err() != nil {
			return nil
		}
		plan, err := optimizeSpec(shardCtx, spec, m.restartOptions(j, spec.Options, seeds[r], r))
		if shardCtx.Err() != nil {
			// Interrupted mid-restart, or the lease was lost during the
			// final stretch: nothing durable to record.
			return plan
		}
		if err != nil {
			s.State = shardFailed
			s.Error = err.Error()
			m.putShardState(lctx, s)
			m.met.shardsDone.Inc()
			return nil
		}
		// Strict < mirrors OptimizeBest's first-wins tie-breaking, so
		// BestRestart is the lowest restart index in the shard achieving
		// the shard minimum.
		if plan != nil && (s.BestCost == nil || plan.Cost < *s.BestCost) {
			if err := m.putPlan(shardPlanBlob(t.Job, k), plan); err != nil {
				m.log.ErrorContext(lctx, "shard plan write failed",
					slog.Int("shard", k), slog.String("error", err.Error()))
				return nil // do not advance Done past an unwritable plan
			}
			c := plan.Cost
			s.BestCost = &c
			s.BestRestart = r
		}
		s.Done++
		if plan != nil {
			s.Iters += plan.Iterations
		}
		now := time.Now()
		s.Sec += now.Sub(last).Seconds()
		last = now
		if s.Done == s.Hi-s.Lo {
			s.State = shardDone
		}
		m.putShardState(lctx, s)
		m.refreshShardProgress(j, t)
		if fn := m.testAfterShardRestart; fn != nil {
			fn(j.id, k, r)
		}
		if plan != nil {
			m.log.InfoContext(lctx, "restart complete",
				slog.Int("shard", k), slog.Int("restart", r),
				slog.Int("iterations", plan.Iterations),
				slog.Float64("cost", plan.Cost))
		}
	}
	if s.State == shardDone {
		m.met.shardsDone.Inc()
	}
	return nil
}

// putShardState writes a shard's durable progress record (plain Put:
// the lease makes this node the only writer).
func (m *Manager) putShardState(lctx context.Context, s *shardState) {
	start := time.Now()
	err := m.store.Put(shardStateBlob(s.Job, s.Shard), marshalBlob(s))
	m.met.ckptSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		m.log.ErrorContext(lctx, "shard state write failed",
			slog.Int("shard", s.Shard), slog.String("error", err.Error()))
	}
}

// putPlan writes a plan blob in the coverage/persist envelope.
func (m *Manager) putPlan(name string, plan *coverage.Plan) error {
	var buf bytes.Buffer
	if err := coverage.WritePlan(&buf, plan); err != nil {
		return err
	}
	return m.store.Put(name, buf.Bytes())
}

// readShardPlan loads shard k's best plan blob.
func (m *Manager) readShardPlan(id string, k int) (*coverage.Plan, error) {
	raw, err := m.store.Get(shardPlanBlob(id, k))
	if err != nil {
		return nil, err
	}
	return coverage.ReadPlan(bytes.NewReader(raw))
}

// refreshShardProgress recomputes the job's cluster-wide progress from
// the shard states, updates the local record, and returns the seconds
// the completed restarts took.
func (m *Manager) refreshShardProgress(j *job, t *shardTable) (sec float64) {
	done, iters := 0, 0
	var best *float64
	for k := 0; k < t.Shards; k++ {
		s := m.loadShardState(t, k)
		done += s.Done
		iters += s.Iters
		sec += s.Sec
		if s.BestCost != nil && (best == nil || *s.BestCost < *best) {
			c := *s.BestCost
			best = &c
		}
	}
	m.mu.Lock()
	j.restartsDone = done
	j.itersDone = iters
	j.prog.RestartsDone = done
	j.prog.BestCost = best
	// The finished restart's iterations moved into itersDone; drop the
	// in-flight sample so view() does not count them twice.
	j.prog.Iteration = 0
	m.mu.Unlock()
	return sec
}

// parkSharded returns a job this node cannot advance right now to the
// queued state; the poller re-enqueues it when a shard frees up or the
// job becomes mergeable.
func (m *Manager) parkSharded(j *job) {
	m.mu.Lock()
	if j.state == StateRunning {
		j.state = StateQueued
		if !j.started.IsZero() {
			j.ranSec += time.Since(j.started).Seconds()
			j.started = time.Time{}
		}
		j.cancel = nil
	}
	m.mu.Unlock()
}

// settleShardedInterrupted routes a cancelled run. A user cancel is a
// cluster-wide terminal transition through CAS that keeps the freshest
// work: the best completed restart, or the interrupted restart's
// partial plan when that is better. A shutdown parks the job locally as
// paused with only completed restarts on record — the store still says
// queued, so any node (including a restarted this-one) picks the work
// back up and reproduces an uninterrupted run bit for bit.
func (m *Manager) settleShardedInterrupted(j *job, t *shardTable, partial *coverage.Plan) {
	m.mu.Lock()
	user := j.userCancel
	paused := !user && j.state == StateRunning
	if paused {
		j.state = StatePaused
		j.ranSec += time.Since(j.started).Seconds()
		j.started = time.Time{}
		j.cancel = nil
	}
	done := j.restartsDone
	m.mu.Unlock()
	if paused {
		m.log.InfoContext(j.logCtx(), "job paused", slog.Int("restartsDone", done))
	}
	if !user {
		return
	}
	plan := m.bestShardPlan(t)
	if partial != nil && (plan == nil || partial.Cost < plan.Cost) {
		plan = partial
	}
	if won, _ := m.casJobTerminal(j, StateCancelled, "", plan); won && plan != nil {
		// Written only once the cancel has won: a node that lost to a
		// merge must not overwrite the merged plan.
		if err := m.putPlan(planBlob(j.id), plan); err != nil {
			m.log.ErrorContext(j.logCtx(), "cancelled plan write failed",
				slog.String("error", err.Error()))
		}
	}
}

// cancelSharded handles Cancel for a job that no worker here is
// currently running: the terminal transition must go through the store
// so every node observes it.
func (m *Manager) cancelSharded(j *job) error {
	won, cur := m.casJobTerminal(j, StateCancelled, "", nil)
	if !won && cur.Terminal() && cur != StateCancelled {
		return fmt.Errorf("%w: %s is %s", ErrTerminal, j.id, cur)
	}
	return nil
}

// casJobTerminal moves the shared job record to a terminal state with
// compare-and-swap, retrying on conflict until either this node wins
// or another node has already made the job terminal. It returns
// whether this node won, plus the job's (possibly foreign) final
// state. The winner — and only the winner — may fire completion hooks.
// The record it writes closes the running span, so the running time and
// start it stores are exactly what this node's view shows.
func (m *Manager) casJobTerminal(j *job, state State, errMsg string, plan *coverage.Plan) (bool, State) {
	for attempt := 0; attempt < 16; attempt++ {
		raw, err := m.store.Get(jobBlob(j.id))
		if err != nil {
			m.log.ErrorContext(j.logCtx(), "job meta read failed during terminal transition",
				slog.String("error", err.Error()))
			return false, j.state
		}
		var env jobEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Job == nil {
			m.log.ErrorContext(j.logCtx(), "job meta torn during terminal transition")
			return false, j.state
		}
		if env.Job.State.Terminal() {
			m.adoptTerminalMeta(j, env.Job)
			return false, env.Job.State
		}
		meta := *env.Job
		meta.State = state
		meta.Finished = time.Now()
		meta.Error = errMsg
		m.mu.Lock()
		meta.Started = j.started
		meta.RestartsDone = j.restartsDone
		meta.ItersDone = j.itersDone
		meta.RanSec = j.ranSec
		if j.state == StateRunning {
			meta.RanSec += meta.Finished.Sub(j.started).Seconds()
		}
		m.mu.Unlock()
		env.Job = &meta
		blob, merr := json.MarshalIndent(env, "", "  ")
		if merr != nil {
			return false, j.state
		}
		err = m.cas.CompareAndSwap(jobBlob(j.id), raw, append(blob, '\n'))
		if err == nil {
			m.applyTerminalLocal(j, &meta, plan)
			return true, state
		}
		if !errors.Is(err, ErrCASConflict) {
			m.log.ErrorContext(j.logCtx(), "terminal CAS failed",
				slog.String("error", err.Error()))
			return false, j.state
		}
	}
	m.log.ErrorContext(j.logCtx(), "terminal CAS retries exhausted")
	return false, j.state
}

// setTerminal copies a terminal job record, and its plan when there is
// one, into the local record and stops a worker that still runs the
// job; callers hold mu.
func (j *job) setTerminal(meta *jobMeta, plan *coverage.Plan) {
	j.state = meta.State
	j.started = meta.Started
	j.finished = meta.Finished
	j.errMsg = meta.Error
	j.ranSec = meta.RanSec
	j.restartsDone = meta.RestartsDone
	j.itersDone = meta.ItersDone
	j.prog.RestartsDone = meta.RestartsDone
	if plan != nil {
		j.plan = plan
		c := plan.Cost
		j.prog.BestCost = &c
	}
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
}

// applyTerminalLocal updates the in-memory record after a won terminal
// CAS.
func (m *Manager) applyTerminalLocal(j *job, meta *jobMeta, plan *coverage.Plan) {
	m.mu.Lock()
	j.setTerminal(meta, plan)
	m.mu.Unlock()
	m.met.runSeconds.Observe(meta.RanSec)
	attrs := []any{
		slog.String("state", string(meta.State)),
		slog.Float64("ranSec", meta.RanSec),
	}
	if plan != nil {
		attrs = append(attrs, slog.Float64("cost", plan.Cost))
	}
	if meta.Error != "" {
		attrs = append(attrs, slog.String("error", meta.Error))
		m.log.ErrorContext(j.logCtx(), "job finished", attrs...)
	} else {
		m.log.InfoContext(j.logCtx(), "job finished", attrs...)
	}
}

// adoptTerminalMeta syncs the local record with a terminal state some
// other node wrote, pulling in the merged plan when one exists.
func (m *Manager) adoptTerminalMeta(j *job, meta *jobMeta) {
	var plan *coverage.Plan
	if raw, err := m.store.Get(planBlob(j.id)); err == nil {
		if p, perr := coverage.ReadPlan(bytes.NewReader(raw)); perr == nil {
			plan = p
		}
	}
	m.mu.Lock()
	j.setTerminal(meta, plan)
	m.mu.Unlock()
}

// syncSharedMeta refreshes the local record from the shared job blob
// and reports whether the job is terminal cluster-wide.
func (m *Manager) syncSharedMeta(j *job) bool {
	raw, err := m.store.Get(jobBlob(j.id))
	if err != nil {
		return false
	}
	var env jobEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Job == nil {
		return false
	}
	if env.Job.State.Terminal() {
		m.adoptTerminalMeta(j, env.Job)
		return true
	}
	return false
}

// finishSharded merges a fully-terminal shard set: reduce the shard
// results to the (cost, restart) winner, publish the winning plan as
// the job's plan blob, and CAS the job terminal. Every node reaches
// the same winner from the same states — the Put of the merged plan is
// idempotent (identical bytes) — and the CAS picks the single node
// that fires the done listener.
func (m *Manager) finishSharded(j *job, t *shardTable) {
	start := time.Now()
	results := make([]shardResult, 0, t.Shards)
	iters, done := 0, 0
	for k := 0; k < t.Shards; k++ {
		s := m.loadShardState(t, k)
		results = append(results, shardResult{
			Shard: k, Failed: s.State == shardFailed, Error: s.Error,
			BestCost: s.BestCost, BestRestart: s.BestRestart, Iters: s.Iters,
		})
		iters += s.Iters
		done += s.Done
	}
	m.mu.Lock()
	j.itersDone = iters
	j.restartsDone = done
	j.prog.RestartsDone = done
	m.mu.Unlock()

	var failMsg string
	for _, r := range results {
		if r.Failed {
			failMsg = fmt.Sprintf("shard %d: %s", r.Shard, r.Error)
			break
		}
	}
	winner, ok := pickShardWinner(results)
	var plan *coverage.Plan
	if ok {
		p, err := m.readShardPlan(t.Job, winner.Shard)
		if err != nil {
			// The winning shard's plan blob is unreadable: force the shard
			// back to pending so it re-runs, and let the job continue.
			m.log.ErrorContext(j.logCtx(), "winning shard plan unreadable; re-running shard",
				slog.Int("shard", winner.Shard), slog.String("error", err.Error()))
			m.putShardState(j.logCtx(), t.pending(winner.Shard))
			m.parkSharded(j)
			m.mu.Lock()
			m.enqueueLocked(j)
			m.mu.Unlock()
			return
		}
		plan = p
		if err := m.putPlan(planBlob(t.Job), plan); err != nil {
			m.log.ErrorContext(j.logCtx(), "merged plan write failed",
				slog.String("error", err.Error()))
		}
	}

	state := StateDone
	if failMsg != "" {
		state = StateFailed
	}
	won, final := m.casJobTerminal(j, state, failMsg, plan)
	m.met.merges.Inc()
	m.met.mergeSeconds.Observe(time.Since(start).Seconds())
	attrs := []any{
		slog.String("state", string(final)),
		slog.Bool("mergedHere", won),
		slog.Int("shards", t.Shards),
	}
	if plan != nil {
		attrs = append(attrs, slog.Float64("cost", plan.Cost),
			slog.Int("winningShard", winner.Shard),
			slog.Int("winningRestart", winner.BestRestart))
	}
	m.log.InfoContext(j.logCtx(), "shards merged", attrs...)

	// Best-effort lease cleanup; stale lease blobs for a terminal job
	// are inert either way.
	for k := 0; k < t.Shards; k++ {
		m.store.Delete(shardLeaseBlob(t.Job, k))
	}
	if won && state == StateDone && plan != nil {
		m.mu.Lock()
		fn := m.onDone
		m.mu.Unlock()
		if fn != nil {
			fn(j.id, j.spec, plan)
		}
	}
}

// enqueueLocked puts a queued job on the local worker queue without
// blocking; a full queue leaves it to the next poll. Callers hold mu.
func (m *Manager) enqueueLocked(j *job) {
	if m.closed || j.state != StateQueued || j.inQueue {
		return
	}
	select {
	case m.queue <- j:
		j.inQueue = true
		j.queuedAt = time.Now()
	default:
	}
}

// poller periodically scans the store: it adopts jobs other nodes
// submitted, refreshes cluster-wide progress of known ones, and
// re-enqueues any parked job with claimable work or a pending merge.
func (m *Manager) poller() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.shard.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-ticker.C:
			m.pollShards()
		}
	}
}

// pollShards is one poller sweep.
func (m *Manager) pollShards() {
	names, err := m.store.List()
	if err != nil {
		m.log.Error("shard poll: store list failed", slog.String("error", err.Error()))
		return
	}
	depth := 0
	for _, name := range names {
		if !strings.HasSuffix(name, shardTableSuffix) {
			continue
		}
		id := strings.TrimSuffix(name, shardTableSuffix)
		j := m.adoptSharded(id)
		if j == nil {
			continue
		}
		m.mu.Lock()
		busy := j.state.Terminal() || j.state == StateRunning
		m.mu.Unlock()
		if busy || m.syncSharedMeta(j) {
			continue
		}
		t, err := m.loadShardTable(id)
		if err != nil {
			continue
		}
		claimable, open := m.assessShards(t)
		depth += claimable
		m.refreshShardProgress(j, t)
		if claimable > 0 || open == 0 {
			m.mu.Lock()
			m.enqueueLocked(j)
			m.mu.Unlock()
		}
	}
	m.met.shardQueueDepth.Set(float64(depth))
}

// assessShards counts open (non-terminal) shards and how many of those
// are claimable right now (no live lease).
func (m *Manager) assessShards(t *shardTable) (claimable, open int) {
	now := time.Now()
	for k := 0; k < t.Shards; k++ {
		s := m.loadShardState(t, k)
		if s.terminal() {
			continue
		}
		open++
		l, _, err := m.readLease(t.Job, k)
		if err == nil && (l == nil || !l.live(now)) {
			claimable++
		}
	}
	return claimable, open
}

// adoptSharded returns the local record for a job id. In a cluster it
// loads the record from the store the first time this node sees the job
// (a submission from another node); outside one, or when the checkpoint
// cannot be read yet — e.g. the submitter is mid-write — it returns nil
// and the next poll retries.
func (m *Manager) adoptSharded(id string) *job {
	m.mu.Lock()
	if j, ok := m.jobs[id]; ok {
		m.mu.Unlock()
		return j
	}
	m.mu.Unlock()
	if !m.shard.Enabled {
		return nil
	}

	j, err := m.loadJob(id)
	if err != nil {
		return nil
	}
	if !j.state.Terminal() {
		j.state = StateQueued
		j.queuedAt = time.Now()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if existing, ok := m.jobs[id]; ok {
		return existing // raced with another adopter
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	if n := seqFromID(id); n > m.seq {
		m.seq = n
	}
	m.sortOrder()
	m.log.Info("adopted job from store", slog.String("job", id))
	return j
}
