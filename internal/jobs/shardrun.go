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

// This file is the manager side of the shard protocol: the worker loop
// that claims and runs shards, the heartbeat that keeps a claim alive,
// the poller that discovers foreign jobs and re-enqueues parked ones,
// and the CAS-guarded merge that ends a sharded job exactly once
// cluster-wide. The pure protocol pieces (blob formats, lease CAS,
// winner reduction) live in shard.go.

// shardingEnabled reports whether this manager participates in the
// shard protocol (configured on, and a store to coordinate through).
func (m *Manager) shardingEnabled() bool { return m.cas != nil }

// runShardedJob drives one sharded job from this node's worker pool:
// claim a shard, run it restart by restart with per-restart durable
// progress, repeat until no shard is claimable. When every shard is
// terminal the job merges; when other nodes still hold live leases the
// job parks back to queued and the poller re-enqueues it once there is
// something to do.
func (m *Manager) runShardedJob(j *job) {
	m.mu.Lock()
	j.inQueue = false
	if j.state != StateQueued || m.ctx.Err() != nil {
		m.mu.Unlock()
		return
	}
	ctx, cancel := m.startRunning(j)
	m.mu.Unlock()
	defer cancel()

	t, err := m.loadShardTable(j.id)
	if errors.Is(err, fs.ErrNotExist) {
		// Submit crashed between the checkpoint triple and the shard
		// table, or the table blob was lost: rebuild it from the spec —
		// the layout is a pure function of (id, restarts, shard size).
		nt := newShardTable(j.id, j.spec.Restarts, m.shard.ShardSize)
		if perr := m.store.Put(shardTableBlob(j.id), marshalBlob(nt)); perr != nil {
			m.log.ErrorContext(j.logCtx(), "shard table rebuild failed",
				slog.String("error", perr.Error()))
			m.parkSharded(j)
			return
		}
		t, err = &nt, nil
	}
	if err != nil {
		m.log.ErrorContext(j.logCtx(), "shard table unreadable",
			slog.String("error", err.Error()))
		m.parkSharded(j)
		return
	}

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
		m.runOneShard(ctx, j, t, k, lease, state)
	}
	m.settleShardedInterrupted(j)
}

// startRunning flips a queued job to running; callers hold mu.
func (m *Manager) startRunning(j *job) (ctx context.Context, cancel func()) {
	ctx, cancel = context.WithCancel(m.ctx)
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	wait := j.started.Sub(j.queuedAt).Seconds()
	if wait >= 0 {
		m.met.queueWait.Observe(wait)
	}
	return ctx, cancel
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
// bytes the new holder would produce at that point.
func (m *Manager) runOneShard(ctx context.Context, j *job, t *shardTable, k int, h *heldLease, s *shardState) {
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
			lo, hi := t.bounds(k)
			*s = shardState{Version: shardVersion, Kind: "shard", Job: t.Job,
				Shard: k, Lo: lo, Hi: hi, State: shardPending}
		}
	}

	spec := j.spec
	seeds := coverage.SplitSeeds(spec.Options.Seed, spec.Restarts)
	for r := s.Lo + s.Done; r < s.Hi; r++ {
		if shardCtx.Err() != nil {
			return
		}
		plan, err := optimizeSpec(shardCtx, spec, m.restartOptions(j, spec.Options, seeds[r], r))
		if err != nil {
			if shardCtx.Err() != nil {
				return // interrupted mid-restart; nothing durable to record
			}
			s.State = shardFailed
			s.Error = err.Error()
			m.putShardState(lctx, s)
			m.met.shardsDone.Inc()
			return
		}
		if shardCtx.Err() != nil {
			return // lease lost during the final stretch: drop the result
		}
		// Strict < mirrors OptimizeBest's first-wins tie-breaking, so
		// BestRestart is the lowest restart index in the shard achieving
		// the shard minimum.
		if plan != nil && (s.BestCost == nil || plan.Cost < *s.BestCost) {
			var buf bytes.Buffer
			if werr := coverage.WritePlan(&buf, plan); werr == nil {
				if perr := m.store.Put(shardPlanBlob(t.Job, k), buf.Bytes()); perr != nil {
					m.log.ErrorContext(lctx, "shard plan write failed",
						slog.Int("shard", k), slog.String("error", perr.Error()))
					return // do not advance Done past an unwritable plan
				}
			}
			c := plan.Cost
			s.BestCost = &c
			s.BestRestart = r
		}
		s.Done++
		if plan != nil {
			s.Iters += plan.Iterations
		}
		if s.Done == s.Hi-s.Lo {
			s.State = shardDone
		}
		m.putShardState(lctx, s)
		m.refreshShardProgress(j, t)
		if fn := m.testAfterShardRestart; fn != nil {
			fn(j.id, k, r)
		}
		if plan != nil {
			m.log.InfoContext(lctx, "shard restart complete",
				slog.Int("shard", k), slog.Int("restart", r),
				slog.Float64("cost", plan.Cost))
		}
	}
	if s.State == shardDone {
		m.met.shardsDone.Inc()
	}
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

// readShardPlan loads shard k's best plan blob.
func (m *Manager) readShardPlan(id string, k int) (*coverage.Plan, error) {
	raw, err := m.store.Get(shardPlanBlob(id, k))
	if err != nil {
		return nil, err
	}
	return coverage.ReadPlan(bytes.NewReader(raw))
}

// refreshShardProgress recomputes the job's cluster-wide progress from
// the shard states and updates the local record.
func (m *Manager) refreshShardProgress(j *job, t *shardTable) {
	done, iters := 0, 0
	var best *float64
	for k := 0; k < t.Shards; k++ {
		s := m.loadShardState(t, k)
		done += s.Done
		iters += s.Iters
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
	m.mu.Unlock()
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

// settleShardedInterrupted routes a cancelled sharded run: a user
// cancel becomes a cluster-wide terminal transition through CAS, a
// shutdown parks the job locally — the store still says queued, so
// any node (including a restarted this-one) picks the work back up.
func (m *Manager) settleShardedInterrupted(j *job) {
	m.mu.Lock()
	user := j.userCancel
	m.mu.Unlock()
	if !user {
		m.mu.Lock()
		if j.state == StateRunning {
			j.state = StatePaused
			if !j.started.IsZero() {
				j.ranSec += time.Since(j.started).Seconds()
				j.started = time.Time{}
			}
			j.cancel = nil
		}
		m.mu.Unlock()
		m.log.InfoContext(j.logCtx(), "sharded job parked by shutdown")
		return
	}
	m.casJobTerminal(j, StateCancelled, "", nil)
}

// cancelSharded handles Cancel for a sharded job that no worker here
// is currently running: the terminal transition must go through the
// store so every node observes it.
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
		m.mu.Lock()
		env.Job.State = state
		env.Job.Finished = time.Now()
		env.Job.Error = errMsg
		env.Job.RestartsDone = j.restartsDone
		env.Job.ItersDone = j.itersDone
		env.Job.RanSec = j.ranSec
		m.mu.Unlock()
		blob, merr := json.MarshalIndent(env, "", "  ")
		if merr != nil {
			return false, j.state
		}
		err = m.cas.CompareAndSwap(jobBlob(j.id), raw, append(blob, '\n'))
		if err == nil {
			m.applyTerminalLocal(j, state, errMsg, plan, env.Job.Finished)
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

// applyTerminalLocal updates the in-memory record after a won terminal
// CAS.
func (m *Manager) applyTerminalLocal(j *job, state State, errMsg string, plan *coverage.Plan, at time.Time) {
	m.mu.Lock()
	j.state = state
	j.finished = at
	j.errMsg = errMsg
	if !j.started.IsZero() {
		j.ranSec += at.Sub(j.started).Seconds()
		j.started = time.Time{}
	}
	if plan != nil {
		j.plan = plan
		c := plan.Cost
		j.prog.BestCost = &c
	}
	j.cancel = nil
	ran := j.ranSec
	m.mu.Unlock()
	m.met.runSeconds.Observe(ran)
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
	j.state = meta.State
	j.finished = meta.Finished
	j.errMsg = meta.Error
	j.restartsDone = meta.RestartsDone
	j.itersDone = meta.ItersDone
	j.prog.RestartsDone = meta.RestartsDone
	if plan != nil {
		j.plan = plan
		c := plan.Cost
		j.prog.BestCost = &c
	}
	j.cancel = nil
	j.started = time.Time{}
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
			lo, hi := t.bounds(winner.Shard)
			m.putShardState(j.logCtx(), &shardState{
				Version: shardVersion, Kind: "shard", Job: t.Job,
				Shard: winner.Shard, Lo: lo, Hi: hi, State: shardPending,
			})
			m.parkSharded(j)
			m.tryEnqueue(j)
			return
		}
		plan = p
		var buf bytes.Buffer
		if err := coverage.WritePlan(&buf, plan); err == nil {
			if perr := m.store.Put(planBlob(t.Job), buf.Bytes()); perr != nil {
				m.log.ErrorContext(j.logCtx(), "merged plan write failed",
					slog.String("error", perr.Error()))
			}
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
	m.log.InfoContext(j.logCtx(), "sharded job merged", attrs...)

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

// tryEnqueue puts a queued sharded job back on the local worker queue
// without blocking; a full queue just waits for the next poll.
func (m *Manager) tryEnqueue(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
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

// poller periodically scans the store: it adopts sharded jobs other
// nodes submitted, refreshes cluster-wide progress of known ones, and
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
		terminal := j.state.Terminal()
		running := j.state == StateRunning
		m.mu.Unlock()
		if terminal || running {
			continue
		}
		if m.syncSharedMeta(j) {
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
			m.tryEnqueue(j)
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

// adoptSharded returns the local record for a sharded job id, loading
// it from the store the first time this node sees it (a submission
// from another node). Returns nil when the checkpoint cannot be read
// yet — e.g. the submitter is mid-write; the next poll retries.
func (m *Manager) adoptSharded(id string) *job {
	m.mu.Lock()
	if j, ok := m.jobs[id]; ok {
		m.mu.Unlock()
		return j
	}
	m.mu.Unlock()

	j, err := m.loadJob(id)
	if err != nil {
		return nil
	}
	j.sharded = true
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
	m.log.Info("adopted sharded job from store", slog.String("job", id))
	return j
}
