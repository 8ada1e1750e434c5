package plans

import (
	"context"
	"fmt"
	"log/slog"
	"sync"

	"repro/coverage"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// Query statuses. Every query resolves to exactly one.
const (
	// StatusHit: the exact fingerprint was cached; Plan is the answer.
	StatusHit = "hit"
	// StatusStale: no exact entry, but a neighbor within the caller's
	// MaxDistance was served directly (Plan is the neighbor's plan,
	// WarmStart identifies it).
	StatusStale = "stale"
	// StatusScheduled: a miss spawned an optimization job (JobID); a
	// later identical query will be served from the cache once the job
	// publishes. WarmStart, when set, names the neighbor seeding it.
	StatusScheduled = "scheduled"
	// StatusPending: a previous query already spawned the job (JobID);
	// nothing new was started.
	StatusPending = "pending"
	// StatusMiss: no entry, and the query asked not to spawn (NoSpawn).
	StatusMiss = "miss"
	// StatusError: the query itself was invalid; see Error.
	StatusError = "error"
)

// Query is one item of a batched plan lookup.
type Query struct {
	// Scenario is the coverage problem being asked about.
	Scenario coverage.Scenario `json:"scenario"`
	// Objectives weights the optimization criteria.
	Objectives coverage.Objectives `json:"objectives"`
	// Options tunes the optimization spawned on a miss (ignored on
	// hits). InitialMatrix is owned by the service's warm-start logic.
	Options coverage.Options `json:"options"`
	// Restarts is the multi-start budget of a spawned job (default 1).
	Restarts int `json:"restarts,omitempty"`
	// Sensors is the fleet size K the plan is for: 0 or 1 is one sensor,
	// K >= 2 asks for a jointly-optimized K-sensor fleet plan. Each fleet
	// size has its own key space (one sensor coverage.ScenarioFingerprint,
	// K >= 2 coverage.FleetFingerprint), so a query never collides with
	// entries of another fleet size for the same scenario.
	Sensors int `json:"sensors,omitempty"`
	// Responsibility is the optional K×M fleet coverage-credit split
	// (uniform 1/K when nil). Only valid with Sensors >= 2.
	Responsibility [][]float64 `json:"responsibility,omitempty"`
	// MaxDistance bounds how far a neighbor may be to serve it directly
	// when ServeStale is set (see distance.go for the metric; ‖ΔΦ‖₁
	// dominates, so values compose with drift-detector thresholds).
	MaxDistance float64 `json:"maxDistance,omitempty"`
	// ServeStale allows answering a miss with the nearest neighbor's
	// plan (status "stale") instead of waiting for an optimization.
	ServeStale bool `json:"serveStale,omitempty"`
	// NoSpawn turns a miss into status "miss" instead of spawning a job
	// — a pure cache probe.
	NoSpawn bool `json:"noSpawn,omitempty"`
}

// Result is the resolution of one Query.
type Result struct {
	// Status is one of the Status* constants.
	Status string `json:"status"`
	// Fingerprint is the query's content address (set unless the query
	// was too malformed to hash).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Plan is the served plan ("hit" and "stale" only).
	Plan *coverage.Plan `json:"plan,omitempty"`
	// Provenance records where a served plan came from.
	Provenance *Provenance `json:"provenance,omitempty"`
	// JobID is the optimization filling the miss ("scheduled"/"pending").
	JobID string `json:"jobId,omitempty"`
	// WarmStart names the neighbor used as a stale serve or a job seed.
	WarmStart *Neighbor `json:"warmStart,omitempty"`
	// Error explains a status of "error".
	Error string `json:"error,omitempty"`
}

// Jobs is the slice of the job manager the service needs. It is
// satisfied by *jobs.Manager.
type Jobs interface {
	SubmitCtx(ctx context.Context, spec jobs.Spec) (jobs.View, error)
	Get(id string) (jobs.View, error)
}

// ServiceConfig wires a Service.
type ServiceConfig struct {
	// Library is the plan cache (required).
	Library *Library
	// Jobs runs optimizations for misses; nil makes every miss behave
	// as NoSpawn.
	Jobs Jobs
	// Logger receives structured service logs. Nil disables logging.
	Logger *slog.Logger
	// Metrics is the registry the service instruments register into.
	Metrics *obs.Registry
}

// svcMetrics bundles the service instruments (nil-safe like all obs
// instruments).
type svcMetrics struct {
	queries   *obs.CounterVec // by status
	spawned   *obs.Counter
	batchSize *obs.Histogram
}

func newSvcMetrics(r *obs.Registry) svcMetrics {
	return svcMetrics{
		queries: r.CounterVec("plans_queries_total",
			"Plan-library queries by resolution status.", "status"),
		spawned: r.Counter("plans_jobs_spawned_total",
			"Optimization jobs spawned to fill plan-library misses."),
		batchSize: r.Histogram("plans_query_batch_size",
			"Queries per /plans:query batch.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
	}
}

// Service resolves plan queries against the library, spawning (and
// deduplicating) optimization jobs for misses. Concurrent queries for
// the same missed fingerprint spawn exactly one job: the fingerprint →
// job-ID table is checked and updated under the same lock that covers
// the submission, so there is no window for a second spawn.
type Service struct {
	lib *Library
	cfg ServiceConfig
	log *slog.Logger
	met svcMetrics

	mu       sync.Mutex
	inflight map[string]string // fingerprint -> job ID
}

// NewService builds a Service over a Library.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Library == nil {
		return nil, fmt.Errorf("plans: ServiceConfig.Library is required")
	}
	s := &Service{
		lib:      cfg.Library,
		cfg:      cfg,
		log:      obs.Component(cfg.Logger, "plans"),
		inflight: make(map[string]string),
	}
	if cfg.Metrics != nil {
		s.met = newSvcMetrics(cfg.Metrics)
	}
	return s, nil
}

// Query resolves one query. See QueryBatch for the batched form.
func (s *Service) Query(ctx context.Context, q Query) Result {
	res := s.resolve(ctx, q)
	s.met.queries.With(res.Status).Inc()
	return res
}

// QueryBatch resolves a batch in order: result i answers query i.
// Identical misses within one batch share a single spawned job (the
// first schedules, the rest are pending on the same job ID).
func (s *Service) QueryBatch(ctx context.Context, qs []Query) []Result {
	s.met.batchSize.Observe(float64(len(qs)))
	out := make([]Result, len(qs))
	for i, q := range qs {
		out[i] = s.Query(ctx, q)
	}
	return out
}

// resolve runs the hit → stale → singleflight-spawn ladder.
func (s *Service) resolve(ctx context.Context, q Query) Result {
	fp, _, err := key(q.Scenario, q.Objectives, q.Sensors, q.Responsibility)
	if err != nil {
		return Result{Status: StatusError, Error: err.Error()}
	}
	res := Result{Fingerprint: string(fp)}

	if e, ok := s.lib.Lookup(fp); ok {
		res.Status = StatusHit
		res.Plan = e.Plan
		prov := e.Provenance
		res.Provenance = &prov
		return res
	}

	// An optimization may already be in flight for this fingerprint.
	if id, ok := s.pendingJob(string(fp)); ok {
		res.Status = StatusPending
		res.JobID = id
		return res
	}

	neighbor, dist, haveNeighbor := s.lib.Nearest(q.Scenario, q.Objectives, q.Sensors, q.Responsibility)
	if haveNeighbor {
		res.WarmStart = &Neighbor{Fingerprint: neighbor.Fingerprint, Distance: dist}
	}
	if q.ServeStale && haveNeighbor && dist <= q.MaxDistance {
		res.Status = StatusStale
		res.Plan = neighbor.Plan
		prov := neighbor.Provenance
		res.Provenance = &prov
		s.lib.met.staleHits.Inc()
		return res
	}
	if q.NoSpawn || s.cfg.Jobs == nil {
		res.Status = StatusMiss
		return res
	}
	return s.spawn(ctx, q, res, neighbor, haveNeighbor)
}

// pendingJob reports a live in-flight job for the fingerprint, clearing
// entries whose job failed or was cancelled so the next query retries.
// (Done jobs clear themselves through OnJobDone; until then the library
// simply serves the pending status, never a wrong plan.)
func (s *Service) pendingJob(fp string) (string, bool) {
	s.mu.Lock()
	id, ok := s.inflight[fp]
	s.mu.Unlock()
	if !ok {
		return "", false
	}
	v, err := s.cfg.Jobs.Get(id)
	if err != nil || (v.State.Terminal() && v.State != jobs.StateDone) {
		s.mu.Lock()
		if s.inflight[fp] == id {
			delete(s.inflight, fp)
		}
		s.mu.Unlock()
		return "", false
	}
	return id, true
}

// spawn submits the optimization for a missed fingerprint, warm-started
// from the nearest neighbor when one exists. The inflight check and the
// submission happen under one lock: that is the singleflight guarantee.
func (s *Service) spawn(ctx context.Context, q Query, res Result, neighbor *Entry, haveNeighbor bool) Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.inflight[res.Fingerprint]; ok {
		res.Status = StatusPending
		res.JobID = id
		return res
	}
	spec := jobs.Spec{
		Scenario:       q.Scenario,
		Objectives:     q.Objectives,
		Options:        q.Options,
		Restarts:       q.Restarts,
		Sensors:        q.Sensors,
		Responsibility: q.Responsibility,
	}
	if haveNeighbor {
		// Fleet misses warm-start the joint descent from the neighbor's
		// whole matrix stack; single-sensor misses seed one matrix.
		if q.Sensors >= 2 && neighbor.Plan.Fleet != nil {
			spec.Options.InitialMatrices = neighbor.Plan.Fleet.TransitionMatrices
		} else {
			spec.Options.InitialMatrix = neighbor.Plan.TransitionMatrix
		}
		s.lib.met.warmStarts.Inc()
	}
	v, err := s.cfg.Jobs.SubmitCtx(ctx, spec)
	if err != nil {
		res.Status = StatusError
		res.Error = err.Error()
		return res
	}
	s.inflight[res.Fingerprint] = v.ID
	s.met.spawned.Inc()
	res.Status = StatusScheduled
	res.JobID = v.ID
	if haveNeighbor {
		s.log.Info("plan miss warm-started",
			slog.String("fingerprint", res.Fingerprint),
			slog.String("job", v.ID),
			slog.String("neighbor", neighbor.Fingerprint),
			slog.Float64("distance", res.WarmStart.Distance))
	} else {
		s.log.Info("plan miss scheduled",
			slog.String("fingerprint", res.Fingerprint),
			slog.String("job", v.ID))
	}
	return res
}

// OnJobDone publishes a finished job's plan into the library and clears
// the fingerprint's in-flight slot. Wire it into the job manager with
// Manager.SetDoneListener so every completed optimization — queries,
// direct submissions, deploy re-optimizations — lands in the cache.
func (s *Service) OnJobDone(jobID string, spec jobs.Spec, plan *coverage.Plan) {
	solver := spec.Options.Solver
	if solver == "" {
		solver = "dense"
	}
	fp, err := s.lib.Publish(spec.Scenario, spec.Objectives, plan, Provenance{
		JobID:      jobID,
		Source:     "job",
		Seed:       spec.Options.Seed,
		Restarts:   spec.Restarts,
		Iterations: plan.Iterations,
		Solver:     solver,
	})
	if err != nil {
		s.log.Error("publish of finished job failed",
			slog.String("job", jobID),
			slog.String("error", err.Error()))
		return
	}
	s.mu.Lock()
	if s.inflight[string(fp)] == jobID {
		delete(s.inflight, string(fp))
	}
	s.mu.Unlock()
}

// Library returns the underlying plan cache.
func (s *Service) Library() *Library { return s.lib }
