package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"strings"
	"time"

	"repro/coverage"
)

// checkpointVersion is the on-disk job-metadata format version.
const checkpointVersion = 1

// Checkpoint blob layout of one job in the manager's Store:
//
//	<id>.job.json       job metadata + objectives + options (this file)
//	<id>.scenario.json  the Scenario, via coverage.WriteScenario
//	<id>.plan.json      the job's final plan, via coverage.WritePlan
//	<id>.shards.json    the shard table, next to each shard's state,
//	<id>.shard-<k>.*    best-plan and lease blobs (shard.go)
//
// The metadata is written at submit and then only by the terminal CAS;
// progress lives in the shard blobs. The scenario and plan blobs reuse
// the coverage/persist envelopes, so (with the default filesystem
// store) they are loadable by every existing tool (e.g. `coverage-opt
// -scenario` or LoadPlan) as well as by the resume path.
type jobEnvelope struct {
	Version int      `json:"version"`
	Kind    string   `json:"kind"`
	Job     *jobMeta `json:"job"`
}

// jobMeta is the serializable slice of a job record. The scenario and
// plan live in their own blobs.
type jobMeta struct {
	ID           string              `json:"id"`
	State        State               `json:"state"`
	Objectives   coverage.Objectives `json:"objectives"`
	Options      coverage.Options    `json:"options"`
	Restarts     int                 `json:"restarts"`
	Sensors      int                 `json:"sensors,omitempty"`
	Resp         [][]float64         `json:"responsibility,omitempty"`
	RestartsDone int                 `json:"restartsDone"`
	ItersDone    int                 `json:"itersDone,omitempty"`
	RanSec       float64             `json:"ranSec,omitempty"`
	Created      time.Time           `json:"created"`
	Started      time.Time           `json:"started"`
	Finished     time.Time           `json:"finished"`
	Error        string              `json:"error,omitempty"`
}

// Blob names for a job ID.
func jobBlob(id string) string      { return id + ".job.json" }
func scenarioBlob(id string) string { return id + ".scenario.json" }
func planBlob(id string) string     { return id + ".plan.json" }

// persist writes a new job's checkpoint at submit: the scenario, then
// the metadata that names it.
func (m *Manager) persist(j *job) error {
	var buf bytes.Buffer
	if err := coverage.WriteScenario(&buf, j.spec.Scenario); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(jobEnvelope{
		Version: checkpointVersion,
		Kind:    "job",
		Job: &jobMeta{
			ID:         j.id,
			State:      j.state,
			Objectives: j.spec.Objectives,
			Options:    j.spec.Options,
			Restarts:   j.spec.Restarts,
			Sensors:    j.spec.Sensors,
			Resp:       j.spec.Responsibility,
			Created:    j.created,
		},
	}, "", "  ")
	if err != nil {
		return err
	}
	start := time.Now()
	defer func() { m.met.ckptSeconds.Observe(time.Since(start).Seconds()) }()
	if err := m.store.Put(scenarioBlob(j.id), buf.Bytes()); err != nil {
		return err
	}
	return m.store.Put(jobBlob(j.id), append(blob, '\n'))
}

// loadCheckpoints scans the store, rebuilds the job table, and returns
// the jobs that need re-queueing (queued, paused, or running at the
// time the previous process stopped), ordered by ID. Terminal jobs are
// loaded so their results stay queryable across restarts.
func (m *Manager) loadCheckpoints() ([]*job, error) {
	names, err := m.store.List()
	if err != nil {
		return nil, fmt.Errorf("jobs: checkpoint store: %w", err)
	}
	var resume []*job
	for _, name := range names {
		if !strings.HasSuffix(name, ".job.json") {
			continue
		}
		id := strings.TrimSuffix(name, ".job.json")
		j, err := m.loadJob(id)
		if err != nil {
			// A torn or corrupt checkpoint (crash mid-write, disk trouble,
			// manual edits) must not take every other job down with it:
			// skip the bad blob, keep it in the store for inspection, and
			// load the rest. The write path's atomic Put makes this rare,
			// but startup must tolerate whatever it finds.
			m.log.Error("skipping unreadable checkpoint",
				slog.String("file", name),
				slog.String("error", err.Error()))
			continue
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		if n := seqFromID(j.id); n > m.seq {
			m.seq = n
		}
		if !j.state.Terminal() {
			resume = append(resume, j)
		}
	}
	sortByID(resume)
	// Keep List ordering stable across restarts too.
	m.sortOrder()
	return resume, nil
}

// sortOrder re-sorts the List order by job sequence number.
func (m *Manager) sortOrder() {
	js := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		js = append(js, m.jobs[id])
	}
	sortByID(js)
	m.order = m.order[:0]
	for _, j := range js {
		m.order = append(m.order, j.id)
	}
}

// loadJob reads one checkpoint triple back into a job record.
func (m *Manager) loadJob(id string) (*job, error) {
	blob, err := m.store.Get(jobBlob(id))
	if err != nil {
		return nil, err
	}
	var env jobEnvelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return nil, err
	}
	if env.Version != checkpointVersion || env.Kind != "job" || env.Job == nil {
		return nil, fmt.Errorf("not a version-%d job file", checkpointVersion)
	}
	meta := env.Job
	if meta.ID == "" || !meta.State.valid() {
		return nil, fmt.Errorf("malformed job metadata (id %q, state %q)", meta.ID, meta.State)
	}
	scnBlob, err := m.store.Get(scenarioBlob(meta.ID))
	if err != nil {
		return nil, err
	}
	scn, err := coverage.ReadScenario(bytes.NewReader(scnBlob))
	if err != nil {
		return nil, err
	}
	j := &job{
		id: meta.ID,
		spec: Spec{
			Scenario:       scn,
			Objectives:     meta.Objectives,
			Options:        meta.Options,
			Restarts:       meta.Restarts,
			Sensors:        meta.Sensors,
			Responsibility: meta.Resp,
		},
		state:        meta.State,
		created:      meta.Created,
		started:      meta.Started,
		finished:     meta.Finished,
		errMsg:       meta.Error,
		restartsDone: meta.RestartsDone,
		itersDone:    meta.ItersDone,
		ranSec:       meta.RanSec,
		prog: Progress{
			Restarts:     meta.Restarts,
			RestartsDone: meta.RestartsDone,
		},
	}
	// Only a terminal job, or one checkpointed before every job ran on
	// shards, has a plan blob.
	planRaw, err := m.store.Get(planBlob(meta.ID))
	switch {
	case err == nil:
		plan, err := coverage.ReadPlan(bytes.NewReader(planRaw))
		if err != nil {
			return nil, err
		}
		j.plan = plan
		c := plan.Cost
		j.prog.BestCost = &c
	case errors.Is(err, fs.ErrNotExist):
		// fine
	default:
		return nil, err
	}
	if !j.state.Terminal() {
		m.resumeShards(j)
	}
	return j, nil
}

// resumeShards brings a non-terminal job's progress, and the running
// time of its completed restarts, in from its shard records. A
// checkpoint from before every job ran on shards has restartsDone > 0
// and no shard table: its completed restarts and best plan become
// shard 0 of a one-shard table, so the job resumes where it stopped
// (coverage.SplitSeeds is prefix-stable). A failed write here only
// costs work: the worker rebuilds a missing table, and rerun restarts
// reproduce the same bits.
func (m *Manager) resumeShards(j *job) {
	t, err := m.loadShardTable(j.id)
	if errors.Is(err, fs.ErrNotExist) && j.restartsDone > 0 {
		t, err = m.convertCheckpoint(j)
	}
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			m.log.Error("shard records unusable; job resumes from scratch",
				slog.String("job", j.id), slog.String("error", err.Error()))
		}
		return
	}
	j.ranSec += m.refreshShardProgress(j, t)
}

// convertCheckpoint writes the one-shard table of an old-format
// checkpoint, shard 0's plan and state first.
func (m *Manager) convertCheckpoint(j *job) (*shardTable, error) {
	t := newShardTable(j.id, j.spec.Restarts, j.spec.Restarts)
	s := t.pending(0)
	s.Done, s.Iters = min(j.restartsDone, s.Hi), j.itersDone
	if s.Done == s.Hi {
		s.State = shardDone
	}
	if j.plan != nil {
		if err := m.putPlan(shardPlanBlob(j.id, 0), j.plan); err != nil {
			return nil, err
		}
		// The old format kept no restart index; a one-shard table never
		// compares it.
		c := j.plan.Cost
		s.BestCost = &c
	}
	if err := m.store.Put(shardStateBlob(j.id, 0), marshalBlob(s)); err != nil {
		return nil, err
	}
	if err := m.store.Put(shardTableBlob(j.id), marshalBlob(t)); err != nil {
		return nil, err
	}
	return &t, nil
}
